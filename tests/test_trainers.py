"""Training-loop behavior: ablation identities, exploitation, aux isolation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from phasic.archive import GridArchive
from phasic.dogfight import DogfightConfig, DogfightEnv
from phasic.kernels import StateBatch, kernel_forward
from phasic.nets import NormalizedPolicy, Policy, ValueFunction
from phasic.optim import Adam
from phasic.rl import (Learner, PPOConfig, RunningStat, collect_rollout, ppo_update,
                       restore_payload, snapshot_payload)
from phasic.toy import ToyConfig, ToyEnv
from phasic import trainers
from phasic.trainers import (RunState, TrainerConfig, dvd_update, make_env, run_training,
                             validate_config, _auxiliary_phase, _evaluate_and_offer, _exploit,
                             _reward_phase)

GAMMA = PPOConfig().gamma


def small_config(**kw):
    base = dict(env_name="toy", trainer="pdo", population=3, iterations=3,
                rollout_steps=96, eval_episodes=2, diversity_iters=5,
                probe_states=48, hidden=(16,), seed=5, exploit_period=200.0)
    base.update(kw)
    return TrainerConfig(**base)


def fresh_learner(seed=0, obs_dim=2, act_dim=2, hidden=(8,), learner_id=0):
    rng = np.random.default_rng(seed)
    policy = Policy.init(obs_dim, ToyEnv().action_space, rng, hidden=hidden)
    value_fn = ValueFunction.init(obs_dim, rng, hidden=hidden)
    return Learner(
        id=learner_id, policy=policy, value_fn=value_fn,
        policy_opt=Adam(policy.n_params), value_opt=Adam(value_fn.params.size),
        obs_stat=RunningStat((obs_dim,)), rng=rng, train_env=ToyEnv())


# the fields validate_config checks outside its two tables, one check each
EXPLICIT = ("trainer", "env_name", "archive", "hidden", "lambda_arms", "deterministic_kernel")
# an integer no float can hold
HUGE = 10**400
# one value each field's rule refuses; a ppo.* field sits on the nested PPOConfig
REFUSED = [
    ("population", 0), ("population", 2.0), ("iterations", 0), ("iterations", True),
    ("rollout_steps", 0), ("rollout_steps", "96"), ("eval_every", 0), ("eval_episodes", 0),
    ("diversity_iters", -1), ("probe_states", 0), ("cells_per_dim", 0), ("queue_capacity", 0),
    ("seed", -1), ("seed", 5.0), ("ppo.epochs", 0), ("ppo.minibatches", 1.5),
    ("iterations", None), ("iterations", float("inf")), ("exploit_period", float("nan")),
    ("exploit_period", -1.0), ("exploit_period", 0.0), ("exploit_period", True), ("beta", 1.0),
    ("beta", 0.0), ("aux_lr", 0.0), ("grad_clip", float("nan")), ("grad_clip", "1"),
    ("ppo.clip", 0.0), ("ppo.lr", -1e-3), ("ppo.gamma", 1.5), ("ppo.lam", float("nan")),
    ("ppo.value_coef", -0.5), ("trainer", "sac"), ("env_name", "atari"), ("archive", "ring"),
    ("hidden", (16, 0)), ("lambda_arms", (0.0, 1.5)), ("lambda_arms", ()),
    ("deterministic_kernel", 1), ("exploit_period", HUGE)]


def _config_fields() -> list:
    return ([f.name for f in dataclasses.fields(TrainerConfig) if f.name != "ppo"]
            + [f"ppo.{f.name}" for f in dataclasses.fields(PPOConfig)])


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", REFUSED,
                             ids=lambda v: "10**400" if v == HUGE else None)
    def test_refusal_names_the_field_and_its_value(self, name, value, tmp_path):
        if name.startswith("ppo."):
            cfg = small_config(ppo=PPOConfig(**{name[4:]: value}))
        else:
            cfg = small_config(**{name: value})
        with pytest.raises(ValueError) as info:
            validate_config(cfg)
        assert name in str(info.value) and repr(value) in str(info.value)
        with pytest.raises(ValueError):
            run_training(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_each_field_has_exactly_one_rule(self):
        rules = [*trainers._COUNTS, *trainers._REALS, *EXPLICIT]
        assert sorted(rules) == sorted(_config_fields())
        assert {name for name, _ in REFUSED} == set(_config_fields())

    def test_population_floor(self):
        with pytest.raises(ValueError, match="got population 1"):
            validate_config(small_config(population=1))

    def test_ppo_single_needs_one_learner(self):
        with pytest.raises(ValueError, match="got population 3"):
            validate_config(small_config(trainer="ppo-single", population=3))
        validate_config(small_config(trainer="ppo-single", population=1))

    @pytest.mark.parametrize("trainer, bad", [
        ("dvd", {"lambda_arms": (0.0, 1.5)}),
        ("dse-ucb", {"lambda_arms": (-0.5,)}),
        ("pdo", {"lambda_arms": ()}),
        ("pdo", {"cells_per_dim": 0}),
        ("pdo", {"queue_capacity": 0}),
        ("pdo", {"iterations": float("nan")}),
        ("pdo", {"ppo": PPOConfig(minibatches=0)}),
        ("pdo", {"ppo": PPOConfig(epochs=0)}),
        ("pdo", {"ppo": PPOConfig(epochs=-1)}),
        ("pdo", {"ppo": PPOConfig(gamma=1.5)}),
        ("pdo", {"ppo": PPOConfig(gamma=-0.1)}),
        ("pdo", {"ppo": PPOConfig(gamma=float("nan"))}),
        ("pdo", {"ppo": PPOConfig(lam=1.5)}),
        ("pdo", {"ppo": PPOConfig(lam=-0.1)}),
        ("pdo", {"ppo": PPOConfig(lam=float("nan"))}),
        ("pdo", {"ppo": PPOConfig(lr=0.0)}),
        ("pdo", {"ppo": PPOConfig(lr=-1e-3)}),
        ("pdo", {"ppo": PPOConfig(lr=float("nan"))}),
        ("pdo", {"ppo": PPOConfig(clip=0.0)}),
        ("pdo", {"ppo": PPOConfig(clip=-0.2)}),
        ("pdo", {"ppo": PPOConfig(clip=float("nan"))}),
        ("pdo", {"ppo": PPOConfig(value_coef=-0.5)}),
        ("pdo", {"ppo": PPOConfig(value_coef=float("nan"))}),
        ("pdo", {"aux_lr": 0.0}),
        ("pdo", {"aux_lr": -1e-3}),
        ("pdo", {"aux_lr": float("nan")}),
        ("dvd", {"grad_clip": 0.0}),
        ("dvd", {"grad_clip": -1.0}),
        ("dvd", {"grad_clip": float("nan")}),
        # counts must be integers and the kernel flag a bool
        ("pdo", {"population": 3.0}),
        ("pdo", {"population": True}),
        ("pdo", {"iterations": 1.5}),
        ("pdo", {"rollout_steps": 96.0}),
        ("pdo", {"eval_every": 1.5}),
        ("pdo", {"eval_episodes": 1.5}),
        ("pdo", {"diversity_iters": 1.5}),
        ("pdo", {"probe_states": "48"}),
        ("pdo", {"cells_per_dim": 10.0}),
        ("pdo", {"queue_capacity": 2.5}),
        ("pdo", {"seed": 5.5}),
        ("pdo", {"ppo": PPOConfig(epochs=2.0)}),
        ("pdo", {"ppo": PPOConfig(minibatches=1.5)}),
        ("pdo", {"deterministic_kernel": "no"}),
        ("pdo", {"deterministic_kernel": 1}),
        # real-valued fields must hold numbers, and hidden positive integer sizes
        ("pdo", {"aux_lr": "1e-3"}),
        ("pdo", {"beta": "0.5"}),
        ("pdo", {"exploit_period": None}),
        ("pdo", {"exploit_period": "inf"}),
        ("pdo", {"aux_lr": True}),
        ("dvd", {"grad_clip": "1"}),
        ("pdo", {"ppo": PPOConfig(gamma="0.9")}),
        ("pdo", {"ppo": PPOConfig(lam="0.95")}),
        ("pdo", {"ppo": PPOConfig(lr="3e-4")}),
        ("pdo", {"ppo": PPOConfig(clip="0.2")}),
        ("pdo", {"ppo": PPOConfig(value_coef="0.5")}),
        ("pdo", {"hidden": (8.7,)}),
        ("pdo", {"hidden": (16, 0)}),
        ("pdo", {"hidden": (-3,)}),
        ("pdo", {"hidden": (True,)}),
        ("pdo", {"hidden": 16}),
        # lambda_arms must be a list of real numbers
        ("dvd", {"lambda_arms": (True, 0.5)}),
        ("dvd", {"lambda_arms": ("0.5",)}),
        ("dvd", {"lambda_arms": 0.5}),
        ("dvd", {"lambda_arms": None}),
        # a NaN or negative period never comes due; a run length is a count, even
        # one that a float holds exactly; SeedSequence refuses a negative seed
        ("pdo", {"exploit_period": float("nan")}),
        ("pdo", {"exploit_period": float("-inf")}),
        ("pdo", {"iterations": 1e308}),
        ("pdo", {"seed": -1}),
        # a zero period is not positive, whatever its sign
        ("pdo", {"exploit_period": -0.0}),
    ])
    def test_values_run_training_cannot_use(self, trainer, bad, tmp_path):
        cfg = small_config(trainer=trainer, **bad)
        with pytest.raises(ValueError):
            validate_config(cfg)
        with pytest.raises(ValueError):
            run_training(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_ppo_edge_values_are_accepted(self):
        validate_config(small_config(ppo=PPOConfig(gamma=0.0, lam=1.0, value_coef=0.0)))
        validate_config(small_config(ppo=PPOConfig(gamma=1.0, lam=0.0)))

    def test_numpy_integer_counts_are_accepted(self):
        validate_config(small_config(population=np.int64(3), seed=np.int64(5),
                                     iterations=np.int64(3), deterministic_kernel=True))

    def test_numeric_types_are_accepted(self):
        # integers and numpy scalars are numbers; an empty hidden is a linear net
        validate_config(small_config(aux_lr=1, beta=np.float64(0.9), grad_clip=np.int64(2),
                                     exploit_period=float("inf"), hidden=[np.int64(8), 4],
                                     ppo=PPOConfig(gamma=1, lam=np.float32(0.5))))
        validate_config(small_config(hidden=()))

    def test_unknown_metric(self):
        # both envs have continuous actions, so training always uses the W2 kernel
        for metric in ("w2", "jsd", "kl"):
            with pytest.raises(TypeError, match="metric"):
                small_config(metric=metric)

    @pytest.mark.parametrize("env_name", ["toy", "dogfight"])
    def test_metric_must_fit_the_action_space(self, env_name):
        # training uses the W2 kernel; it fits each env's action space and JSD does not
        env = make_env(env_name)
        validate_config(small_config(env_name=env_name))
        rng = np.random.default_rng(0)
        pols = [Policy.init(env.obs_dim, env.action_space, rng, hidden=(8,)) for _ in range(2)]
        batch = StateBatch(rng.normal(size=(4, env.obs_dim)))
        with pytest.raises(ValueError, match="jsd metric requires discrete"):
            kernel_forward(pols, batch, metric="jsd")
        assert kernel_forward(pols, batch, metric="w2").entries.shape == (2, 2)

    def test_bad_metric_rejected_before_training(self, tmp_path):
        with pytest.raises(TypeError, match="metric"):
            run_training(small_config(metric="jsd", population=2, iterations=1),
                         out_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.jsonl").exists()


class TestRunArtifacts:
    def test_run_directory_layout(self, tmp_path):
        res = run_training(small_config(), out_dir=tmp_path / "run")
        root = tmp_path / "run"
        assert (root / "config.json").exists()
        assert (root / "summary.json").exists()
        assert (root / "archive" / "manifest.json").exists()
        lines = (root / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            rec = json.loads(line)
            assert rec["type"] == "iteration"
            assert len(rec["learners"]) == 3
        cfg = json.loads((root / "config.json").read_text())
        assert cfg["trainer"] == "pdo"
        assert cfg["population"] == 3
        summary = json.loads((root / "summary.json").read_text())
        assert summary["iterations"] == 3
        assert "wall_clock_s" in summary
        assert len(res.records) == 3

    def test_iteration_count_derived_from_budget(self):
        # the defaults are the paper's 3e6 env steps per learner and 6e5 between
        # exploitations, at 1/50 desk scale
        default = TrainerConfig()
        assert default.iterations == math.ceil(3e6 / 50 / default.rollout_steps)
        assert default.exploit_period == 6e5 / 50
        # a run lasts iterations rollouts of rollout_steps steps
        res = run_training(small_config(iterations=5, rollout_steps=100))
        assert res.summary["iterations"] == 5
        assert res.summary["env_steps_per_learner"] == 500


class TestAblationIdentity:
    def test_pdo_without_diversity_equals_pbt(self, tmp_path):
        base = dict(population=3, iterations=4, rollout_steps=96, seed=99,
                    eval_episodes=2, hidden=(16,), exploit_period=150.0,
                    probe_states=48)
        cfg = TrainerConfig(trainer="pdo", **base)
        pdo_res = run_training(dataclasses.replace(cfg, diversity_iters=0),
                               out_dir=tmp_path / "pdo")
        pbt_res = run_training(dataclasses.replace(cfg, trainer="pbt", diversity_iters=20),
                               out_dir=tmp_path / "pbt")
        a = (tmp_path / "pdo" / "metrics.jsonl").read_text()
        b = (tmp_path / "pbt" / "metrics.jsonl").read_text()
        assert a == b
        for x, y in zip(pdo_res.learners, pbt_res.learners):
            assert np.array_equal(x.policy.params, y.policy.params)
            assert np.array_equal(x.value_fn.params, y.value_fn.params)

    def test_seeded_runs_replay_bit_identically(self, tmp_path):
        cfg = small_config(seed=31)
        run_training(cfg, out_dir=tmp_path / "a")
        run_training(cfg, out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "metrics.jsonl").read_text()
                == (tmp_path / "b" / "metrics.jsonl").read_text())


class TestAuxiliaryPhase:
    def test_aux_never_touches_live_learners(self):
        # with exploitation disabled, the only cross-learner channel is the
        # auxiliary phase; enabling it must leave learner trajectories intact
        base = dict(population=3, iterations=3, rollout_steps=96, seed=17,
                    eval_episodes=2, hidden=(16,), probe_states=48,
                    exploit_period=float("inf"))
        with_aux = run_training(TrainerConfig(trainer="pdo", diversity_iters=8, **base))
        without = run_training(TrainerConfig(trainer="pdo", diversity_iters=0, **base))
        for x, y in zip(with_aux.learners, without.learners):
            assert np.array_equal(x.policy.params, y.policy.params)
        for ra, rb in zip(with_aux.records, without.records):
            assert ra["learners"] == rb["learners"]
            assert ra["eval"] == rb["eval"]

    def test_aux_records_det_trace_and_offers(self):
        res = run_training(small_config(diversity_iters=6))
        aux_records = [r["aux"] for r in res.records if r["aux"]]
        assert aux_records
        for aux in aux_records:
            assert aux["offered"] == 3  # population-sized candidate set
            assert len(aux["offers"]) == 3
            # log-det ascent on a frozen objective never loses ground
            assert aux["det_end"] >= aux["det_start"] - 1e-9

    def test_aux_produces_distinct_policies_from_duplicates(self):
        # archive seeded with one policy in three cells: after one auxiliary
        # phase the ascended candidates must have pushed apart
        cfg = small_config(population=3, diversity_iters=10, iterations=1)
        rng = np.random.default_rng(0)
        learner = fresh_learner(seed=0, hidden=(16,))
        archive = GridArchive()
        for i, bd in enumerate(([0.15, 0.15], [0.45, 0.45], [0.85, 0.85])):
            archive.add(learner.view(), 1.0 + i, bd, payload=snapshot_payload(learner))
        probe_pool = rng.uniform(-1, 1, size=(128, 2))
        state = RunState.create(cfg, ToyEnv)
        state.archive, state.aux_rng = archive, np.random.default_rng(1)
        info = _auxiliary_phase(state, probe_pool, 0)
        assert info["offered"] == 3
        assert info["det_end"] > info["det_start"]


class TestEvaluationEnvs:
    def test_a_run_builds_a_train_and_an_eval_env_per_learner(self):
        built = []

        def factory():
            built.append(ToyEnv())
            return built[-1]

        state = RunState.create(small_config(), factory)
        assert len(built) == 2 * 3
        envs = [l.train_env for l in state.learners] + state.eval_envs
        assert sorted(map(id, envs)) == sorted(map(id, built))

    @pytest.mark.parametrize("trainer", ["pdo", "edo-cs"])
    def test_live_and_aux_evaluation_share_the_eval_envs(self, monkeypatch, trainer):
        calls = []
        evaluate = trainers.evaluate

        def record_eval(policies, envs, rngs, **kwargs):
            calls.append(list(envs))
            return evaluate(policies, envs, rngs, **kwargs)

        monkeypatch.setattr(trainers, "evaluate", record_eval)
        state = run_training(small_config(trainer=trainer, diversity_iters=2))
        k = None
        for envs in calls:
            if len(envs) == 3:  # the live population, then its cycle's candidates
                assert all(a is b for a, b in zip(envs, state.eval_envs))
                assert k in (None, 3)
                k = 0
            else:  # auxiliary candidate k
                assert envs[0] is state.eval_envs[k]
                k += 1
        assert sum(len(envs) == 1 for envs in calls) >= 3


def test_every_offer_was_evaluated_through_its_frozen_normalizer(monkeypatch):
    """Live learners and aux candidates are both evaluated through a frozen view,
    and that very view is what is offered and archived.

    Live learners are evaluated in one lockstep call, then offered in order;
    each aux candidate is evaluated alone, then offered.
    """
    import phasic.trainers as trainers
    calls = []
    evaluate, offer = trainers.evaluate, trainers._offer

    def record_eval(policies, *args, **kwargs):
        calls.extend(("eval", policy) for policy in policies)
        results = evaluate(policies, *args, **kwargs)
        calls.append(("results", len(results)))
        return results

    def record_offer(archive, queue, view, fitness, bd, **meta):
        calls.append(("offer", view))
        return offer(archive, queue, view, fitness, bd, **meta)

    monkeypatch.setattr(trainers, "evaluate", record_eval)
    monkeypatch.setattr(trainers, "_offer", record_offer)
    for trainer in ("pdo", "dvd"):
        calls.clear()
        state = run_training(small_config(trainer=trainer, diversity_iters=2))
        kinds = [c[0] for c in calls]
        live = ["eval"] * 3 + ["results"] + ["offer"] * 3
        assert kinds[:7] == live
        evals = [c for c in calls if c[0] == "eval"]
        offers = [c for c in calls if c[0] == "offer"]
        assert len(evals) == len(offers) >= 3 * 3
        # each call evaluates as many policies as it returns results for: the
        # three live learners, or one aux candidate; the offers follow in the
        # order the policies were evaluated
        sizes = [c[1] for c in calls if c[0] == "results"]
        assert sum(sizes) == len(evals)
        assert set(sizes) == ({1, 3} if trainer == "pdo" else {3})
        pending = []
        for call in calls:
            if call[0] == "eval":
                pending.append(call[1])
            elif call[0] == "offer":
                assert call[1] is pending.pop(0)
        assert not pending
        assert all(isinstance(view, NormalizedPolicy) for _, view in evals)
        evaluated = {id(view) for _, view in evals}
        for entry in state.archive.entries() + state.queue.entries():
            assert id(entry.policy) in evaluated


def test_summary_counters_sum_the_records():
    for trainer in ("pdo", "dvd"):
        res = run_training(small_config(trainer=trainer, diversity_iters=2,
                                        lambda_arms=(0.5,)))
        records, summary = res.records, res.summary
        assert summary["nan_events"] == sum(
            l["nan_event"] for r in records for l in r["learners"])
        assert summary["exploit_events"] == sum(r["exploit"] is not None for r in records)
        assert summary["aux_offers"] == sum(r["aux"]["offered"] for r in records if r["aux"])
        assert summary["aux_accepts"] == sum(
            r["aux"]["accepted"] for r in records if r["aux"])
        if trainer == "pdo":
            assert summary["exploit_events"] > 0 and summary["aux_offers"] > 0


class TestExploitation:
    def test_disabled_period_never_copies(self):
        res = run_training(small_config(trainer="pbt",
                                        exploit_period=float("inf")))
        assert res.summary["exploit_events"] == 0
        assert all(r["exploit"] is None for r in res.records)

    def test_exploit_events_logged(self):
        res = run_training(small_config(trainer="pbt", exploit_period=100.0,
                                        iterations=4))
        assert res.summary["exploit_events"] >= 1
        events = [r["exploit"] for r in res.records if r["exploit"]]
        for ev in events:
            assert 0 <= ev["target"] < 3

    def test_exploit_copies_the_full_payload(self):
        donor = fresh_learner(seed=1, learner_id=0)
        # give the donor distinctive state everywhere
        donor.policy_opt.step(donor.policy.params, np.ones(donor.policy.n_params))
        collect_rollout([donor], 6, GAMMA)
        assert donor.obs_stat.count == donor.ret_stat.count == 6 and donor.ret != 0.0
        payload = snapshot_payload(donor)
        archive = GridArchive()
        assert archive.add(donor.view(), 5.0, [0.5, 0.5], payload=payload)

        target = fresh_learner(seed=2, learner_id=1)
        target.fitness = -1.0
        donor_live = fresh_learner(seed=3, learner_id=0)
        donor_live.fitness = 4.0
        state = RunState.create(small_config(population=2), ToyEnv)
        state.learners, state.archive = [donor_live, target], archive
        state.exploit_rng = np.random.default_rng(0)
        # exploit_period 200: due from 200 env steps, then from 400
        assert _exploit(state, np.zeros((4, 2)), 199) is None
        ev = _exploit(state, np.zeros((4, 2)), 200)
        assert state.next_exploit == 400.0
        assert ev["target"] == 1
        assert np.array_equal(target.policy.params, payload["policy_params"])
        assert np.array_equal(target.value_fn.params, payload["value_params"])
        assert np.array_equal(target.policy_opt.m, payload["policy_opt"]["m"])
        assert target.policy_opt.t == payload["policy_opt"]["t"]
        assert np.array_equal(target.obs_stat.mean, payload["obs_stat"]["mean"])
        assert target.obs_stat.count == payload["obs_stat"]["count"]
        assert np.array_equal(target.ret_stat.m2, payload["ret_stat"]["m2"])
        assert target.ret == payload["ret"]
        assert target.obs is None and target.pending_return == 0.0

    @pytest.mark.parametrize("period", [1e-6, 1e-310])
    def test_tiny_period_exploits_once_per_cycle(self, period):
        # 8e8 due points of 2e-8 steps pass in each 16-step cycle, or more than
        # a float can count at 2e-312; either way one exploit per cycle
        res = run_training(small_config(trainer="pbt", exploit_period=period * 0.02,
                                        rollout_steps=16, iterations=2))
        assert res.summary["exploit_events"] == 2
        assert 32 < res.next_exploit <= 32 + 2e-8

    def test_nan_recovery_keeps_the_exploited_payload(self, monkeypatch):
        """A NaN update right after an exploit restores the archived payload,
        not the snapshot of the learner the exploit replaced."""
        state = RunState.create(small_config(population=2), ToyEnv)
        donor = fresh_learner(seed=1, hidden=(16,))
        payload = snapshot_payload(donor)
        assert state.archive.add(donor.view(), 5.0, [0.5, 0.5], payload=payload)
        state.learners[0].fitness, state.learners[1].fitness = 4.0, -1.0
        assert _exploit(state, np.zeros((4, 2)), 200)["target"] == 1
        real = trainers.dvd_update

        def nan_on_target(*args):
            stats = real(*args)
            stats[1].nan_event = True
            return stats

        monkeypatch.setattr(trainers, "dvd_update", nan_on_target)
        records, _ = _reward_phase(state)
        assert records[1]["nan_event"]
        assert np.array_equal(state.learners[1].policy.params, payload["policy_params"])
        assert np.array_equal(state.learners[1].value_fn.params, payload["value_params"])

    def test_restore_payload_round_trip(self):
        learner = fresh_learner(seed=4)
        snap = snapshot_payload(learner)
        learner.policy = learner.policy.with_params(learner.policy.params + 1.0)
        collect_rollout([learner], 10, GAMMA)
        assert learner.obs_stat.count == 10
        restore_payload(learner, snap)
        assert np.array_equal(learner.policy.params, snap["policy_params"])
        assert learner.obs_stat.count == snap["obs_stat"]["count"]
        assert learner.ret == snap["ret"] == 0.0


class TestGatingAcrossRuns:
    @pytest.mark.parametrize("trainer", ["pdo", "pbt", "dvd", "edo-cs"])
    def test_archive_max_fitness_non_decreasing(self, trainer):
        res = run_training(small_config(trainer=trainer, iterations=4))
        best = -np.inf
        seen = False
        for rec in res.records:
            if rec["archive"] is None:
                continue
            seen = True
            assert rec["archive"]["max_fitness"] >= best
            best = rec["archive"]["max_fitness"]
        assert seen


class TestDvdUpdate:
    @staticmethod
    def setup_population(seed=0, n=3, steps=64, update_seed=0):
        """Learners after one rollout, their buffers, and probe states.

        Each learner's generator is then reseeded to ``update_seed + i``, the
        stream its PPO update draws from.
        """
        learners = [fresh_learner(seed=[seed, i], learner_id=i) for i in range(n)]
        buffers = collect_rollout(learners, steps, GAMMA)
        for i, learner in enumerate(learners):
            learner.rng = np.random.default_rng(update_seed + i)
        probes = np.random.default_rng(seed).uniform(-1, 1, size=(32, 2))
        return learners, buffers, probes

    @staticmethod
    def ppo_reference(policy, value_fn, buffer, rng):
        return ppo_update(policy, value_fn, buffer, PPOConfig(), Adam(policy.n_params),
                          Adam(value_fn.params.size), rng)

    def test_lambda_zero_equals_plain_ppo(self):
        learners, buffers, probes = self.setup_population(update_seed=100)
        policies, values = [l.policy for l in learners], [l.value_fn for l in learners]
        stats = dvd_update(learners, buffers, 0.0, probes, TrainerConfig(),
                           np.random.default_rng(0))
        for i, learner in enumerate(learners):
            ref_p, ref_v, _ = self.ppo_reference(policies[i], values[i], buffers[i],
                                                 np.random.default_rng(100 + i))
            assert np.array_equal(learner.policy.params, ref_p.params)
            assert np.array_equal(learner.value_fn.params, ref_v.params)
            assert not stats[i].nan_event

    def test_lambda_one_equals_one_ascent_step(self):
        from phasic.detops import diversity_ascent
        learners, buffers, probes = self.setup_population(seed=1, update_seed=200)
        views = [l.view() for l in learners]
        dvd_update(learners, buffers, 1.0, probes, TrainerConfig(aux_lr=1e-3),
                   np.random.default_rng(0))
        ref, _ = diversity_ascent(views, StateBatch(probes), steps=1,
                                  lr=1e-3, rng=np.random.default_rng(0))
        for learner, want in zip(learners, ref):
            assert np.array_equal(learner.policy.params, want.params)

    def test_one_learner_lambda_one_keeps_its_policy(self):
        # no ascent runs on a population of one, so the diversity step is zero
        learners, buffers, probes = self.setup_population(seed=5, n=1)
        before = learners[0].policy.params.copy()
        stats = dvd_update(learners, buffers, 1.0, probes, TrainerConfig(),
                           np.random.default_rng(0))
        assert np.array_equal(learners[0].policy.params, before)
        assert not stats[0].nan_event

    def test_interior_lambda_is_the_convex_mix(self):
        from phasic.detops import diversity_ascent
        learners, buffers, probes = self.setup_population(seed=2, update_seed=300)
        policies, values = [l.policy for l in learners], [l.value_fn for l in learners]
        views = [l.view() for l in learners]
        dvd_update(learners, buffers, 0.5, probes, TrainerConfig(aux_lr=1e-3),
                   np.random.default_rng(0))
        aux_ref, _ = diversity_ascent(views, StateBatch(probes), steps=1,
                                      lr=1e-3, rng=np.random.default_rng(0))
        for i, learner in enumerate(learners):
            ppo_ref, _, _ = self.ppo_reference(policies[i], values[i], buffers[i],
                                               np.random.default_rng(300 + i))
            want = (policies[i].params
                    + 0.5 * (ppo_ref.params - policies[i].params)
                    + 0.5 * (aux_ref[i].params - policies[i].params))
            assert learner.policy.params == pytest.approx(want, abs=1e-12)

    def test_lambda_out_of_range_rejected(self):
        learners, buffers, probes = self.setup_population(seed=3)
        with pytest.raises(ValueError):
            dvd_update(learners, buffers, 1.5, probes, TrainerConfig(),
                       np.random.default_rng(0))

    def test_nan_buffer_keeps_original_parameters(self):
        learners, buffers, probes = self.setup_population(seed=4)
        policies, values = [l.policy for l in learners], [l.value_fn for l in learners]
        buffers[1].rewards = buffers[1].rewards.copy()
        buffers[1].rewards[0] = np.nan
        stats = dvd_update(learners, buffers, 0.5, probes, TrainerConfig(),
                           np.random.default_rng(0))
        assert stats[1].nan_event
        assert learners[1].policy is policies[1]
        assert learners[1].value_fn is values[1]
        assert not stats[0].nan_event


class TestBanditTrainers:
    @pytest.mark.parametrize("trainer", ["dvd", "dse-ucb"])
    def test_bandit_records_valid_arms(self, trainer):
        res = run_training(small_config(trainer=trainer, iterations=4,
                                        exploit_period=float("inf")))
        picks = [r["bandit"] for r in res.records if r["bandit"]]
        assert picks
        for b in picks:
            assert b["lambda"] in (0.0, 0.5)
            assert b["arm"] in (0, 1)
            assert isinstance(b["improved"], bool)


class TestPpoSingle:
    def test_runs_without_population_machinery(self):
        res = run_training(small_config(trainer="ppo-single", population=1,
                                        iterations=3))
        assert all(r["exploit"] is None for r in res.records)
        assert all(r["aux"] is None for r in res.records)
        assert all(r["bandit"] is None for r in res.records)
        assert len(res.archive) >= 1


class TestMakeEnv:
    def test_factory_names(self):
        assert make_env("toy").obs_dim == 2
        assert make_env("dogfight").obs_dim == 22
        with pytest.raises(ValueError):
            make_env("pong")

    @pytest.mark.parametrize("config, field", [
        (lambda: ToyConfig(bump_scale=0.0), "bump_scale"),
        (lambda: DogfightConfig(max_steps=0), "max_steps"),
        (lambda: DogfightConfig(lock_limit=0), "lock_limit"),
        (lambda: DogfightConfig(v_min=0.0), "v_min"),
        (lambda: DogfightConfig(v_min=float("nan")), "v_min"),
        (lambda: DogfightConfig(v_max=0.0), "v_max"),
        (lambda: DogfightConfig(v_max=float("nan")), "v_max"),
        (lambda: DogfightConfig(half_width=0.0), "half_width"),
        (lambda: DogfightConfig(half_width=float("nan")), "half_width"),
        (lambda: DogfightConfig(dist_scale=0.0), "dist_scale"),
        (lambda: DogfightConfig(dist_scale=float("nan")), "dist_scale"),
        (lambda: DogfightConfig(alt_max=100.0), "alt_max"),
        (lambda: DogfightConfig(alt_min=float("nan")), "alt_max")])
    def test_env_configs_refuse_a_zero_their_step_divides_by(self, config, field):
        with pytest.raises(ValueError, match=field):
            config()


def test_saturated_dogfight_policy_is_offered():
    """A policy whose elevator mean sits far past 1 is flown at 1: its
    descriptor lands on the grid's edge, and the offer goes through."""
    cfg = small_config(env_name="dogfight", population=2, eval_episodes=1)
    state = RunState.create(cfg, lambda: DogfightEnv(DogfightConfig(max_steps=200)))
    learner = state.learners[0]
    params = learner.policy.params.copy()
    params[-7] = 3.0  # the elevator's output bias: four log-stds follow four biases
    learner.policy = learner.policy.with_params(params)
    evals = _evaluate_and_offer(state, 0)
    assert evals[0]["bd"][0] == 1.0
    assert {e.source for e in state.archive.entries()} == {0, 1}


def test_queue_archive_mediates_exploit_and_aux():
    """archive="queue" draws exploit sources and aux candidates from the queue."""
    cfg = TrainerConfig(env_name="toy", trainer="pdo", archive="queue",
                        population=3, iterations=4, rollout_steps=64,
                        eval_episodes=2, eval_every=1, diversity_iters=2,
                        probe_states=32, exploit_period=1.0,
                        queue_capacity=4, seed=11)
    result = run_training(cfg)
    # the grid archive is still maintained for QD reporting
    assert len(result.archive) >= 1
    assert len(result.queue) >= 1
    exploits = [r["exploit"] for r in result.records if r["exploit"] is not None]
    assert exploits, "queue-mediated run should still trigger exploitation"
    aux = [r["aux"] for r in result.records if r["aux"] is not None]
    assert aux, "queue-mediated run should still run the auxiliary phase"
    # every source names a queue insertion; the grid counts its own orders
    inserted = result.queue._counter
    sources = [e["source_order"] for e in exploits]
    sources += [o["source_order"] for a in aux for o in a["offers"]]
    assert all(0 <= order < inserted for order in sources)


def test_queue_archive_rejected_values():
    with pytest.raises(ValueError):
        validate_config(TrainerConfig(archive="ring"))
