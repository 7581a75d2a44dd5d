"""Acceptance gate: nine package-level guarantees checked end to end.

Each test prints exactly one ``[criterion N] PASS|FAIL`` line straight to
the terminal (capture is disabled around the reporter), so a plain
``pytest -v`` run shows the gate status inline.  Tolerances are pinned in
the assertions next to each check.

Note on ordering: criterion 5 scans the metrics log of every run recorded
by this module, so it is defined after criterion 6 (which contributes ten
runs) even though the criteria are numbered independently.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from factories import (clustered_gaussian_policies, log_det_chain,
                       random_discrete_policy)
from oracles import (LN2, DiagGaussian, DiscreteDist, central_diff_grad,
                     cofactor_det, f_js, grad_close, jsd, mc_w2_diag_gaussian,
                     random_psd_unit_diag, surrogate_det_bound, w2_squared_diag,
                     w2_squared_full)

from phasic.detops import (_factor_with_backoff, cholesky, det_via_cholesky,
                           diversity_ascent, spd_inverse)
from phasic.dogfight import DogfightEnv
from phasic.kernels import StateBatch, kernel_forward
from phasic.nets import Policy
from phasic.selection import BanditState, bandit_update, thompson_select, ucb_select
from phasic.toy import ToyEnv
from phasic.trainers import TrainerConfig, run_training

_SESSION_RUNS = []  # run directories recorded for the criterion-5 scan


@pytest.fixture(scope="session")
def session_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _report(n: int, desc: str, ok: bool, detail: str = "", capfd=None):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    if capfd is not None:
        with capfd.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# -- criterion 1: determinant + gradient oracles ------------------------------


def test_criterion_1_math_oracles(capfd):
    started = time.monotonic()
    rng = np.random.default_rng(11)

    # determinant vs recursive cofactor expansion, sizes 1..5, 1000 cases
    worst_det = 0.0
    for case in range(1000):
        n = 1 + case % 5
        b = rng.standard_normal((n, n)) / math.sqrt(n)
        a = b @ b.T + 0.1 * np.eye(n)
        worst_det = max(worst_det,
                        abs(det_via_cholesky(cholesky(a)) - cofactor_det(a)))
    ok_det = worst_det <= 1e-8

    # log-det gradient on the kernel: the upstream ascent hands the reverse
    # pass, beta_used * K~^{-1} from the production blend-and-factor, as a
    # directional derivative vs central differences of the cofactor log det
    betas = (0.1, 0.5, 0.9, 0.99)
    ok_dgrad = True
    for case in range(100):
        m = int(rng.integers(2, 6))
        k = random_psd_unit_diag(m, rng)
        beta = betas[case % 4]
        dk = rng.standard_normal((m, m))
        dk = 0.5 * (dk + dk.T)
        np.fill_diagonal(dk, 0.0)
        factor, beta_used = _factor_with_backoff(k, beta)
        analytic = float(np.sum(beta_used * spd_inverse(factor) * dk))
        h = 1e-5
        hi = cofactor_det(beta * (k + h * dk) + (1 - beta) * np.eye(m))
        lo = cofactor_det(beta * (k - h * dk) + (1 - beta) * np.eye(m))
        numeric = (math.log(hi) - math.log(lo)) / (2 * h)
        ok_dgrad = ok_dgrad and beta_used == beta and grad_close(
            np.array([analytic]), np.array([numeric]), rtol=1e-4)

    # parameter gradients of log det through the chain diversity_ascent runs
    # (kernel forward, blend-and-factor, beta_used * K~^{-1}, kernel
    # backward) vs central differences, 50 continuous + 50 discrete cases
    ok_aux = True
    for case in range(100):
        prng = np.random.default_rng(1000 + case)
        if case < 50:
            policies = clustered_gaussian_policies(prng, 3, spread=0.3)
            metric = "w2"
        else:
            policies = [random_discrete_policy(prng) for _ in range(3)]
            metric = "jsd"
        batch = StateBatch(prng.uniform(-1, 1, (24, 2)))
        fwd, _, _, grads = log_det_chain(policies, batch, metric, beta=0.9)
        i = int(prng.integers(3))

        def f(theta, _i=i, _p=policies, _m=metric, _s=fwd.scale):
            ps = list(_p)
            ps[_i] = _p[_i].with_params(theta)
            return math.log(log_det_chain(ps, batch, _m, beta=0.9, norm_scale=_s)[1])

        numeric = central_diff_grad(f, policies[i].params, h=1e-5)
        ok_aux = ok_aux and grad_close(grads[i], numeric, rtol=1e-4, atol=1e-8)

    elapsed = time.monotonic() - started
    ok = ok_det and ok_dgrad and ok_aux and elapsed < 60.0
    _report(1, "determinant, log-det kernel gradient and the ascent's policy "
               "gradients match independent oracles", ok,
            f"max |det err| {worst_det:.2e}, 100+100 gradient checks at rel "
            f"1e-4, {elapsed:.1f}s", capfd)


# -- criterion 2: surrogate determinant lower bound ----------------------------


def test_criterion_2_surrogate_bound(capfd):
    rng = np.random.default_rng(22)
    betas = (0.1, 0.5, 0.9, 0.99)
    worst_margin = float("inf")
    ok_bound = True
    backoffs = 0
    for case in range(1000):
        m = 2 + case % 5
        k = random_psd_unit_diag(m, rng)
        for beta in betas:
            factor, beta_used = _factor_with_backoff(k, beta)
            backoffs += beta_used != beta
            margin = det_via_cholesky(factor) - surrogate_det_bound(m, beta)
            worst_margin = min(worst_margin, margin)
            ok_bound = ok_bound and margin >= -1e-10

    ok_eq = True
    for m in range(2, 7):
        ones = np.ones((m, m))
        for beta in betas:
            factor, beta_used = _factor_with_backoff(ones, beta)
            backoffs += beta_used != beta
            det = det_via_cholesky(factor)
            ok_eq = ok_eq and abs(det - surrogate_det_bound(m, beta)) <= 1e-10
    det_2 = det_via_cholesky(_factor_with_backoff(np.ones((2, 2)), 0.5)[0])
    ok_eq = ok_eq and abs(det_2 - 0.75) <= 1e-10

    _report(2, "surrogate determinant respects the duplication lower bound "
               "with equality on all-ones kernels", ok_bound and ok_eq and backoffs == 0,
            f"1000 kernels x 4 betas, worst margin {worst_margin:.2e}, "
            f"{backoffs} beta backoffs", capfd)


# -- criterion 3: repulsion from identical policies ----------------------------


def _mean_pair_w2(pi, pj, states) -> float:
    mi, li = pi.gaussian_batch(states)
    mj, lj = pj.gaussian_batch(states)
    mean_term = float(np.mean(np.sum((mi - mj) ** 2, axis=1)))
    std_term = float(np.sum((np.exp(li) - np.exp(lj)) ** 2))
    return mean_term + std_term


def test_criterion_3_repulsion(capfd):
    rng = np.random.default_rng(33)
    env = ToyEnv()
    base = Policy.init(2, env.action_space, rng, hidden=(16,))
    population = [base, base.with_params(base.params),
                  base.with_params(base.params)]
    batch = StateBatch(rng.uniform(-1.0, 1.0, (256, 2)))
    ascended, trace = diversity_ascent(population, batch, steps=20,
                                       metric="w2", beta=0.99,
                                       rng=np.random.default_rng(34))
    diffs = np.diff(trace)
    ok_mono = bool(np.all(diffs > -1e-12)) and trace[-1] > trace[0]
    pair_dists = [_mean_pair_w2(ascended[i], ascended[j], batch.states)
                  for i in range(3) for j in range(i)]
    ok_apart = all(d > 0.0 for d in pair_dists)
    _report(3, "20 ascent steps from identical policies climb the "
               "determinant monotonically and separate all pairs",
            ok_mono and ok_apart,
            f"det {trace[0]:.3e} -> {trace[-1]:.3e}, min pairwise W2 "
            f"{min(pair_dists):.3e}", capfd)


# -- criterion 4: ablation identity --------------------------------------------


def test_criterion_4_ablation_identity(session_dir, capfd):
    cfg = TrainerConfig(env_name="toy", trainer="pdo", population=3,
                        iterations=12, rollout_steps=64, eval_episodes=2,
                        eval_every=2, diversity_iters=0, probe_states=32,
                        hidden=(8,), exploit_period=1500.0, seed=7)
    dir_a = session_dir / "ablation_pdo_d0"
    dir_b = session_dir / "ablation_pbt"
    run_training(cfg, out_dir=dir_a)
    run_training(dataclasses.replace(cfg, trainer="pbt"), out_dir=dir_b)
    _SESSION_RUNS.extend([dir_a, dir_b])
    log_a = (dir_a / "metrics.jsonl").read_bytes()
    log_b = (dir_b / "metrics.jsonl").read_bytes()
    ok = log_a == log_b and len(log_a) > 0
    _report(4, "disabling the auxiliary phase makes the full trainer's "
               "metrics log bit-identical to the reward-only trainer", ok,
            f"{len(log_a)} bytes compared", capfd)


# -- criterion 6: desk-scale trend (before 5: its runs feed the gating scan) ---


def test_criterion_6_desk_scale_trend(session_dir, capfd):
    started = time.monotonic()
    summaries = {"pdo": [], "pbt": []}
    for trainer in ("pdo", "pbt"):
        for seed in range(5):
            cfg = TrainerConfig(env_name="toy", trainer=trainer, population=3,
                                eval_every=10, seed=seed)
            run_dir = session_dir / f"trend_{trainer}_seed{seed}"
            result = run_training(cfg, out_dir=run_dir)
            _SESSION_RUNS.append(run_dir)
            summaries[trainer].append(result.summary["qd"])
    elapsed = time.monotonic() - started

    def mean(trainer, key):
        return float(np.mean([s[key] for s in summaries[trainer]]))

    cov_pdo, cov_pbt = mean("pdo", "coverage"), mean("pbt", "coverage")
    qd_pdo, qd_pbt = mean("pdo", "qd_score"), mean("pbt", "qd_score")
    mx_pdo, mx_pbt = mean("pdo", "max_fitness"), mean("pbt", "max_fitness")
    ok_cov = cov_pdo >= cov_pbt
    ok_qd = qd_pdo >= qd_pbt
    ok_mx = abs(mx_pdo - mx_pbt) <= 0.05 * abs(mx_pbt)
    ok_time = elapsed < 900.0
    _report(6, "diversity phase grows coverage and QD-score without "
               "sacrificing peak fitness at desk scale",
            ok_cov and ok_qd and ok_mx and ok_time,
            f"coverage {cov_pdo:.3f} vs {cov_pbt:.3f}, qd {qd_pdo:.1f} vs "
            f"{qd_pbt:.1f}, max {mx_pdo:.2f} vs {mx_pbt:.2f}, "
            f"{elapsed:.0f}s for 10 runs", capfd)


# -- criterion 5: archive gating across every recorded run ---------------------


def test_criterion_5_archive_gating(session_dir, capfd):
    # cover the remaining trainer variants with short runs of their own
    for trainer in ("dvd", "dse-ucb", "edo-cs", "ppo-single"):
        cfg = TrainerConfig(
            env_name="toy", trainer=trainer,
            population=1 if trainer == "ppo-single" else 3,
            iterations=6, rollout_steps=64, eval_episodes=2, eval_every=2,
            diversity_iters=3, probe_states=32, hidden=(8,),
            exploit_period=800.0, seed=19)
        run_dir = session_dir / f"gating_{trainer}"
        run_training(cfg, out_dir=run_dir)
        _SESSION_RUNS.append(run_dir)

    scanned, violations = 0, []
    for run_dir in _SESSION_RUNS:
        seq = []
        with open(run_dir / "metrics.jsonl") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("archive") is not None:
                    seq.append(rec["archive"]["max_fitness"])
        assert seq, f"{run_dir} logged no archive metrics"
        scanned += 1
        for prev, cur in zip(seq, seq[1:]):
            if not cur >= prev:
                violations.append((str(run_dir), prev, cur))
    ok = scanned >= 6 and not violations
    _report(5, "per-run archive max fitness is non-decreasing in every "
               "recorded metrics log", ok,
            f"{scanned} runs scanned, {len(violations)} violations", capfd)


# -- criterion 7: flight environment contract -----------------------------------


def _independent_lock(att_pos, att_fwd, tgt_pos, cone_deg=10.0,
                      max_range=1000.0) -> bool:
    los = np.asarray(tgt_pos, dtype=np.float64) - np.asarray(att_pos,
                                                             dtype=np.float64)
    dist = float(np.linalg.norm(los))
    if not dist < max_range:
        return False
    fwd = np.asarray(att_fwd, dtype=np.float64)
    cos_ang = float(np.dot(fwd, los) / (dist * np.linalg.norm(fwd)))
    return cos_ang >= math.cos(math.radians(cone_deg)) - 1e-12


_TERMINALS = {"max_steps", "out_of_bounds:red", "out_of_bounds:blue",
              "lock_win:red", "lock_win:blue"}


def _play_episode(seed: int):
    env = DogfightEnv()
    env.reset(np.random.default_rng(10_000 + seed))
    act_rng = np.random.default_rng(50_000 + seed)
    obs_log, rew_log, infos, states = [], [], [], []
    done = False
    while not done:
        action = act_rng.uniform(-1.0, 1.0, 4)
        obs, reward, done, info = env.step(action)
        obs_log.append(obs)
        rew_log.append(reward)
        infos.append(info)
        states.append(env.state)  # each step makes a new immutable state
    return np.asarray(obs_log), np.asarray(rew_log), infos, states


def test_criterion_7_flight_env_contract(capfd):
    started = time.monotonic()
    ok = True
    problems = []
    lengths = []
    for ep in range(100):
        obs_a, rew_a, infos, states = _play_episode(ep)
        lengths.append(len(infos))
        last, terminal = infos[-1], states[-1].status.terminal
        if len(infos) > 3000:
            problems.append(f"ep{ep}: length {len(infos)}")
        if terminal not in _TERMINALS:
            problems.append(f"ep{ep}: terminal {terminal!r}")
        if terminal == "out_of_bounds:red":
            # the -1000 exit penalty is additive on top of the lock terms
            expected = -1000.0 + float(last["red_locks"]) - float(last["blue_locks"])
            if last["sparse_reward"] != expected:
                problems.append(f"ep{ep}: OOB reward {last['sparse_reward']}")
        for t, (info, state) in enumerate(zip(infos, states)):
            red, blue = state.red, state.blue
            if info["red_locks"] != _independent_lock(red.pos, red.forward, blue.pos):
                problems.append(f"ep{ep} t{t}: red lock flag mismatch")
                break
            if info["blue_locks"] != _independent_lock(blue.pos, blue.forward, red.pos):
                problems.append(f"ep{ep} t{t}: blue lock flag mismatch")
                break
        obs_b, rew_b, _, states_b = _play_episode(ep)
        if not (np.array_equal(obs_a, obs_b) and np.array_equal(rew_a, rew_b)
                and states_b[-1].status.terminal == terminal):
            problems.append(f"ep{ep}: replay diverged")
    elapsed = time.monotonic() - started
    ok = not problems
    _report(7, "100 random flight episodes respect length, terminal, "
               "out-of-bounds and lock rules with bit-identical replay", ok,
            f"mean length {np.mean(lengths):.0f}, {elapsed:.0f}s"
            + (f"; first problem: {problems[0]}" if problems else ""), capfd)


# -- criterion 8: closed-form kernel distances ----------------------------------


def test_criterion_8_kernel_closed_forms(capfd):
    rng = np.random.default_rng(88)
    worst_rel = 0.0
    for case in range(10):
        dim = 2 + case % 3
        m1 = rng.normal(0.0, 2.0, dim)
        m2 = rng.normal(0.0, 2.0, dim)
        s1 = rng.uniform(0.4, 1.6, dim)
        s2 = rng.uniform(0.4, 1.6, dim)
        closed = w2_squared_full(m1, np.diag(s1 ** 2), m2, np.diag(s2 ** 2))
        mc = mc_w2_diag_gaussian(m1, s1, m2, s2, 300_000, rng)
        worst_rel = max(worst_rel, abs(closed - mc) / closed)
    ok_w2 = worst_rel <= 0.05

    ok_jsd = True
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        p = DiscreteDist(rng.dirichlet(np.ones(k)))
        q = DiscreteDist(rng.dirichlet(np.ones(k)))
        d = jsd(p, q)
        ok_jsd = ok_jsd and 0.0 <= d <= LN2 + 1e-12

    # the training kernel's distances are the closed forms: W2 the state-mean
    # of w2_squared_diag per pair, JSD the jsd of each pair on each probe
    # state; its entries are those distances through the map, exp(-d / (2
    # scale)) for W2 and the state-mean of f_js for JSD
    def rel(got, want):
        return float(np.max(np.abs(got - want) / np.abs(want)))

    worst_path = 0.0
    for case in range(20):
        prng = np.random.default_rng(880 + case)
        n_pols = 2 + case % 4
        batch = StateBatch(prng.uniform(-1.0, 1.0, (16, 2)))
        off = ~np.eye(n_pols, dtype=bool)
        if case % 3 == 2:
            pols = [random_discrete_policy(prng) for _ in range(n_pols)]
            fwd = kernel_forward(pols, batch, "jsd")
            probs = [pi.probs_batch(batch.states) for pi in pols]
            want = np.array([[[jsd(DiscreteDist(pi), DiscreteDist(pj))
                               for pi, pj in zip(probs[i], probs[j])]
                              for j in range(n_pols)] for i in range(n_pols)])
            want_entries = np.array([[np.mean([f_js(d) for d in row]) for row in rows]
                                     for rows in want])
        else:
            mean_only = case % 3 == 1
            pols = clustered_gaussian_policies(prng, n_pols, spread=0.3)
            fwd = kernel_forward(pols, batch, "w2", mean_only)
            outs = [pi.gaussian_batch(batch.states) for pi in pols]
            want = np.array([[np.mean([w2_squared_diag(DiagGaussian(mi, outs[i][1]),
                                                       DiagGaussian(mj, outs[j][1]),
                                                       mean_only)
                                       for mi, mj in zip(outs[i][0], outs[j][0])])
                              for j in range(n_pols)] for i in range(n_pols)])
            want_entries = np.exp(-0.5 * (want / fwd.scale))
        assert fwd.dist.shape == want.shape
        worst_path = max(worst_path, rel(fwd.dist[off], want[off]),
                         rel(fwd.entries[off], want_entries[off]))
    ok_path = worst_path <= 1e-12

    _report(8, "closed-form W2 matches Monte-Carlo transport, JSD stays "
               "inside [0, ln 2], and the training kernel is built from both",
            ok_w2 and ok_jsd and ok_path,
            f"worst W2 rel err {worst_rel:.3%} over 10 pairs, "
            f"1000 JSD pairs bounded, kernel vs closed forms rel {worst_path:.1e} "
            "over 20 populations", capfd)


# -- criterion 9: bandit concentration ------------------------------------------


def _bandit_fraction(select, seed: int) -> float:
    rng = np.random.default_rng(seed)
    state = BanditState(arms=(0.9, 0.1))
    for _ in range(1000):
        arm = select(state, rng)
        reward = bool(rng.random() < state.arms[arm])
        bandit_update(state, arm, reward)
    return float(state.pulls[0] / state.pulls.sum())


def test_criterion_9_bandit_concentration(capfd):
    thomp = np.mean([_bandit_fraction(thompson_select, 100 + s)
                     for s in range(10)])
    ucb = np.mean([_bandit_fraction(lambda st, rng: ucb_select(st), 200 + s)
                   for s in range(10)])
    ok = thomp >= 0.95 and ucb >= 0.95
    _report(9, "Thompson and UCB concentrate on the Bernoulli(0.9) arm "
               "within 1000 rounds", ok,
            f"thompson {thomp:.1%}, ucb {ucb:.1%} of pulls (10-run mean)",
            capfd)
