"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: the determinant oracle
is a recursive cofactor expansion, gradients come from central finite
differences, and the optimal-transport oracle estimates W2^2 by Monte-Carlo
over an explicit coupling.  ``DiagGaussian`` and ``DiscreteDist`` are reference
distributions, and the closed-form distances are written per pair of them.
``surrogate_det_bound`` is the closed-form floor of the blended determinant.
The reference kernel passes, network passes, running statistics, per-learner
reward phase, dogfight kinematics and toy step below are the plain forms of the
production hot path, which must match them bit for bit; ``finite_runs`` is the
plain loop behind the report's grouping of finite curve points.
"""

import math
from dataclasses import dataclass

import numpy as np

from phasic.dogfight import GRAVITY, AircraftState, Geometry, wrap_angle
from phasic.nets import LOG_STD_MAX, LOG_STD_MIN, OBS_CLIP
from phasic.rl import EvalResult, RolloutBuffer


def cofactor_det(a: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * float(a[0, j]) * cofactor_det(minor)
    return total


def central_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        g.flat[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4,
               atol: float = 1e-9) -> bool:
    """Relative comparison on the gradient's own scale.

    ``atol`` absorbs the finite-difference noise floor (function round-off of
    ~1e-16 divided by the step 2e-5), which dominates once the true gradient
    is numerically zero.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(numeric))), float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - numeric))) <= rtol * scale + atol


def mc_w2_diag_gaussian(m1, s1, m2, s2, n_samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo W2^2 between diagonal Gaussians via the comonotone coupling.

    For Gaussians with diagonal covariance the optimal transport plan couples
    each coordinate through a shared standard normal draw, so the expected
    squared distance under that coupling is exactly W2^2.
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    s1 = np.asarray(s1, dtype=np.float64)  # std vectors
    s2 = np.asarray(s2, dtype=np.float64)
    z = rng.standard_normal((n_samples, m1.size))
    x = m1 + s1 * z
    y = m2 + s2 * z
    return float(np.mean(np.sum((x - y) ** 2, axis=1)))


def random_psd_unit_diag(m: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix with unit diagonal and entries in [0, 1].

    Gram matrix of nonnegative unit vectors: dot products land in [0, 1],
    the diagonal is exactly 1, and PSD holds by construction.
    """
    d = rank if rank is not None else m + rng.integers(0, 3)
    v = np.abs(rng.standard_normal((m, max(d, 1))))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    k = v @ v.T
    k = np.clip(0.5 * (k + k.T), 0.0, 1.0)
    np.fill_diagonal(k, 1.0)
    return k


def surrogate_det_bound(m: int, beta: float) -> float:
    """Lower bound (1-beta+m*beta)*(1-beta)^(m-1) on det of the surrogate blend
    beta*K + (1-beta)*I.

    Holds for every PSD unit-diagonal kernel; attained when all policies are
    identical (all-ones kernel).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    return (1.0 - beta + m * beta) * (1.0 - beta) ** (m - 1)


def kernel_invariant_violations(k: np.ndarray) -> list:
    """What a population kernel breaks of: symmetric within 1e-9, unit
    diagonal, entries in [0, 1], minimum eigenvalue >= -1e-8."""
    k = np.asarray(k, dtype=np.float64)
    bad = []
    if np.max(np.abs(k - k.T)) > 1e-9:
        bad.append("asymmetric")
    if np.any(np.diag(k) != 1.0):
        bad.append("diagonal")
    if np.any(k < 0.0) or np.any(k > 1.0):
        bad.append("range")
    elif np.linalg.eigvalsh(0.5 * (k + k.T))[0] < -1e-8:
        bad.append("not PSD")
    return bad


# -- reference distributions ---------------------------------------------------
#
# One distribution at a time, with sampling, log-density and entropy; the
# closed-form distances and the loop kernel passes below take these.

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance, parameterised by mean and log-std.

    ``log_std`` is clamped into ``[LOG_STD_MIN, LOG_STD_MAX]`` at construction
    so downstream exponentials stay finite.
    """

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        log_std = np.asarray(self.log_std, dtype=np.float64)
        if mean.shape != log_std.shape:
            raise ValueError(f"mean shape {mean.shape} != log_std shape {log_std.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(log_std))):
            raise ValueError("non-finite Gaussian parameters")
        log_std = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_std", log_std)

    @property
    def std(self) -> np.ndarray:
        return np.exp(self.log_std)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal(self.mean.shape)

    def log_prob(self, action: np.ndarray) -> float:
        """Log density of ``action``, summed over dimensions."""
        action = np.asarray(action, dtype=np.float64)
        z = (action - self.mean) / self.std
        return float(np.sum(-0.5 * z * z - self.log_std - _HALF_LOG_2PI))

    def entropy(self) -> float:
        return float(np.sum(self.log_std + _HALF_LOG_2PI + 0.5))

    def mode(self) -> np.ndarray:
        return self.mean.copy()


@dataclass(frozen=True)
class DiscreteDist:
    """Categorical distribution over ``len(probs)`` actions."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty vector")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probs sum to {probs.sum()}, expected 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.size

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.n, p=self.probs))

    def log_prob(self, action: int) -> float:
        p = self.probs[int(action)]
        return float(np.log(np.maximum(p, 1e-300)))

    def entropy(self) -> float:
        p = self.probs
        return float(-np.sum(np.where(p > 0, p * np.log(np.maximum(p, 1e-300)), 0.0)))

    def mode(self) -> int:
        return int(np.argmax(self.probs))


# -- closed-form distribution distances -----------------------------------------

LN2 = math.log(2.0)


def jsd(p: DiscreteDist, q: DiscreteDist) -> float:
    """Jensen-Shannon divergence between two categoricals, in nats.

    Symmetric, bounded by ln 2, with the 0*log(0) = 0 convention.
    """
    if p.n != q.n:
        raise ValueError(f"support mismatch: {p.n} vs {q.n}")
    pa, qa = p.probs, q.probs
    m = 0.5 * (pa + qa)
    val = 0.5 * _kl(pa, m) + 0.5 * _kl(qa, m)
    # clip tiny negative round-off; value is mathematically in [0, ln 2]
    return float(min(max(val, 0.0), LN2))


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def f_js(d: float) -> float:
    """Map a JSD value d in [0, ln 2] to a similarity 1 - d/ln 2 in [0, 1]."""
    return float(min(max(1.0 - d / LN2, 0.0), 1.0))


def w2_squared_diag(a: DiagGaussian, b: DiagGaussian, mean_only: bool = False) -> float:
    """Squared 2-Wasserstein distance between diagonal Gaussians.

    ||m1 - m2||^2 + ||s1 - s2||^2 where s are elementwise standard
    deviations.  With ``mean_only`` the std term is dropped.
    """
    if a.mean.shape != b.mean.shape:
        raise ValueError("dimension mismatch")
    d2 = float(np.sum((a.mean - b.mean) ** 2))
    if not mean_only:
        d2 += float(np.sum((a.std - b.std) ** 2))
    return d2


def _psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, eigenvalues clamped at 0."""
    w, v = np.linalg.eigh(s)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def w2_squared_full(m1, s1, m2, s2) -> float:
    """Squared 2-Wasserstein distance between full-covariance Gaussians.

    ||m1 - m2||^2 + tr[S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2}]
    """
    m1, m2, s1, s2 = (np.asarray(x, dtype=np.float64) for x in (m1, m2, s1, s2))
    for s in (s1, s2):
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(s, s.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
    r1 = _psd_sqrt(s1)
    cross = _psd_sqrt(r1 @ s2 @ r1)
    val = float(np.sum((m1 - m2) ** 2) + np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))
    return max(val, 0.0)


# -- reference kernel passes -----------------------------------------------------
#
# One pair and one probe state at a time, with a DiscreteDist per state, where
# the production passes work on all pairs at once.

@dataclass
class LoopKernelForward:
    policies: list
    batch: object
    metric: str
    deterministic: bool
    entries: np.ndarray
    scale: float
    mus: list = None
    log_stds: list = None
    probs: list = None


def kernel_forward(policies, batch, metric="w2", deterministic=False, norm_scale=None):
    m = len(policies)
    states = batch.states
    n = states.shape[0]
    k = np.eye(m)
    if metric == "jsd":
        probs = [pi.probs_batch(states) for pi in policies]
        for i in range(m):
            for j in range(i + 1, m):
                total = 0.0
                for s in range(n):
                    total += f_js(jsd(DiscreteDist(probs[i][s]), DiscreteDist(probs[j][s])))
                k[i, j] = k[j, i] = total / n
        return LoopKernelForward(list(policies), batch, metric, deterministic, k, 1.0,
                                 probs=probs)
    outs = [pi.gaussian_batch(states) for pi in policies]
    mus = [o[0] for o in outs]
    log_stds = [o[1] for o in outs]
    sq = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d2 = float(np.mean(np.sum((mus[i] - mus[j]) ** 2, axis=1)))
            if not deterministic:
                d2 += float(np.sum((np.exp(log_stds[i]) - np.exp(log_stds[j])) ** 2))
            sq[i, j] = sq[j, i] = d2
    if norm_scale is None:
        iu = np.triu_indices(m, k=1)
        scale = float(np.std(np.concatenate([sq[iu], sq[(iu[1], iu[0])]])))
        if scale < 1e-12:
            scale = 1.0
    else:
        scale = float(norm_scale)
    k = np.exp(-0.5 * (sq / scale))
    np.fill_diagonal(k, 1.0)
    return LoopKernelForward(list(policies), batch, metric, deterministic, k, scale,
                             mus=mus, log_stds=log_stds)


def kernel_backward(fwd, upstream):
    """Each policy's reverse pass takes a cache from a forward of its own."""
    m = len(fwd.policies)
    states = fwd.batch.states
    n = states.shape[0]
    grads = []
    if fwd.metric == "jsd":
        for i in range(m):
            dp = np.zeros_like(fwd.probs[i])
            for j in range(m):
                if j == i:
                    continue
                coeff = -(upstream[i, j] + upstream[j, i]) / (n * LN2)
                p, q = fwd.probs[i], fwd.probs[j]
                dp += coeff * 0.5 * np.log(np.maximum(p, 1e-300) / (0.5 * (p + q)))
            pi = fwd.policies[i]
            grads.append(pi.backward_probs(pi.probs_batch(states, with_cache=True)[1], dp))
        return grads
    sigmas = [np.exp(ls) for ls in fwd.log_stds]
    for i in range(m):
        dmu = np.zeros_like(fwd.mus[i])
        dls = np.zeros_like(fwd.log_stds[i])
        for j in range(m):
            if j == i:
                continue
            w = -(upstream[i, j] + upstream[j, i]) * fwd.entries[i, j] / (2.0 * fwd.scale)
            dmu += w * (2.0 / n) * (fwd.mus[i] - fwd.mus[j])
            if not fwd.deterministic:
                dls += w * 2.0 * (sigmas[i] - sigmas[j]) * sigmas[i]
        pi = fwd.policies[i]
        grads.append(pi.backward_gaussian(pi.gaussian_batch(states, with_cache=True)[2],
                                          dmu, dls))
    return grads


def cumsum_total(x: np.ndarray, axis: int) -> np.ndarray:
    """A running total along ``axis``: the last slice of a full ``np.cumsum``."""
    return np.cumsum(x, axis=axis).take(-1, axis=axis)


# -- reference MLP passes ------------------------------------------------------
#
# Every pass re-slices the flat vector with np.prod, where the production
# passes use a layout and views cached once.

def _mlp_sizes(topology: dict, out_dim: int) -> tuple:
    return (int(topology["obs_dim"]), *(int(h) for h in topology["hidden"]), out_dim)


def _mlp_unpack(sizes, flat: np.ndarray):
    shapes = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        shapes += [(b, a), (b,)]
    out, off = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[off:off + size].reshape(shape))
        off += size
    return out


def mlp_forward(sizes, flat: np.ndarray, x: np.ndarray):
    views = _mlp_unpack(sizes, flat)
    acts, h = [x], x
    n_layers = len(sizes) - 1
    for layer in range(n_layers):
        w, b = views[2 * layer], views[2 * layer + 1]
        z = h @ w.T + b
        h = np.tanh(z) if layer < n_layers - 1 else z
        acts.append(h)
    return h, acts


def mlp_backward(sizes, flat: np.ndarray, acts, dout: np.ndarray) -> np.ndarray:
    views = _mlp_unpack(sizes, flat)
    n_params = sum(int(np.prod(v.shape)) for v in views)
    grad = np.zeros(n_params)
    gviews = _mlp_unpack(sizes, grad)
    dz = dout
    for layer in range(len(sizes) - 2, -1, -1):
        gviews[2 * layer][...] = dz.T @ acts[layer]
        gviews[2 * layer + 1][...] = dz.sum(axis=0)
        if layer > 0:
            dh = dz @ views[2 * layer]
            dz = dh * (1.0 - acts[layer] * acts[layer])  # tanh' from its output
    return grad


def _policy_net(policy):
    """(sizes, network params, log_std params or None)."""
    space = policy.topology["action_space"]
    sizes = _mlp_sizes(policy.topology, int(space["dim"]))
    if space["kind"] == "continuous":
        n_net = policy.params.size - int(space["dim"])
        return sizes, policy.params[:n_net], policy.params[n_net:]
    return sizes, policy.params, None


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def gaussian_batch(policy, states):
    sizes, net, log_std = _policy_net(policy)
    out, _ = mlp_forward(sizes, net, np.asarray(states, dtype=np.float64))
    return out, np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)


def probs_batch(policy, states):
    sizes, net, _ = _policy_net(policy)
    out, _ = mlp_forward(sizes, net, np.asarray(states, dtype=np.float64))
    return _softmax(out)


def backward_gaussian(policy, states, d_mu, d_log_std=None):
    sizes, net, log_std = _policy_net(policy)
    states = np.asarray(states, dtype=np.float64)
    _, cache = mlp_forward(sizes, net, states)
    g_net = mlp_backward(sizes, net, cache, np.asarray(d_mu, dtype=np.float64))
    g_ls = np.zeros_like(log_std)
    if d_log_std is not None:
        mask = (log_std > LOG_STD_MIN) & (log_std < LOG_STD_MAX)
        g_ls = np.asarray(d_log_std, dtype=np.float64) * mask
    return np.concatenate([g_net, g_ls])


def backward_logits(policy, states, d_logits):
    sizes, net, _ = _policy_net(policy)
    states = np.asarray(states, dtype=np.float64)
    _, cache = mlp_forward(sizes, net, states)
    return mlp_backward(sizes, net, cache, np.asarray(d_logits, dtype=np.float64))


def backward_probs(policy, states, d_probs):
    p = probs_batch(policy, states)
    d_probs = np.asarray(d_probs, dtype=np.float64)
    inner = np.sum(d_probs * p, axis=1, keepdims=True)
    return backward_logits(policy, states, p * (d_probs - inner))


def value_batch(value_fn, states):
    sizes = _mlp_sizes(value_fn.topology, 1)
    out, _ = mlp_forward(sizes, value_fn.params, np.asarray(states, dtype=np.float64))
    return out[:, 0]


def value_backward(value_fn, states, d_value):
    sizes = _mlp_sizes(value_fn.topology, 1)
    states = np.asarray(states, dtype=np.float64)
    _, cache = mlp_forward(sizes, value_fn.params, states)
    return mlp_backward(sizes, value_fn.params, cache,
                        np.asarray(d_value, dtype=np.float64)[:, None])


# -- reference running statistics -------------------------------------------------

def update_stat(stat, x) -> None:
    """Batch update of a (count, mean, m2) statistic by the batch reductions,
    one-row inputs included; ``x`` is one row or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == stat.mean.ndim:
        x = x[None]
    n = x.shape[0]
    if n == 0:
        return
    mean = x.mean(axis=0)
    m2 = ((x - mean) ** 2).sum(axis=0)
    if stat.count == 0.0:
        stat.count = float(n)
        stat.mean = np.array(mean, dtype=np.float64)
        stat.m2 = np.array(m2, dtype=np.float64)
        return
    total = stat.count + n
    delta = mean - stat.mean
    stat.mean = stat.mean + delta * (n / total)
    stat.m2 = stat.m2 + m2 + delta ** 2 * (stat.count * n / total)
    stat.count = total


class BatchMoments:
    """Streaming (count, mean, m2) that takes the batch reductions for every
    input, one-row inputs included."""

    def __init__(self, shape=()):
        self.count = 0.0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def update(self, x) -> None:
        update_stat(self, x)

    @property
    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.ones_like(self.mean)
        return np.sqrt(np.maximum(self.m2 / self.count, 0.0))


class ArrayRewardScaler:
    """The rollout's reward scaling, feeding each discounted return through the
    batch update as a one-element array."""

    def __init__(self, gamma: float = 0.99):
        self.gamma = float(gamma)
        self.ret = 0.0
        self.stat = BatchMoments(())

    def scale(self, reward: float, done: bool) -> float:
        self.ret = self.gamma * self.ret + reward
        self.stat.update(np.array([self.ret]))
        out = reward / max(float(self.stat.std), 1e-8)
        if done:
            self.ret = 0.0
        return out


# -- reference dogfight kinematics -------------------------------------------------

def integrate(state, action, cfg):
    """dogfight.integrate with np.clip on scalars and the nose vector from
    ``nose``."""
    action = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    throttle, elevator, roll_cmd, rudder = action
    speed = float(np.clip(state.speed + throttle * cfg.accel_max * cfg.dt,
                          cfg.v_min, cfg.v_max))
    roll = wrap_angle(state.roll + roll_cmd * cfg.roll_rate * cfg.dt)
    pitch = float(np.clip(state.pitch + elevator * cfg.pitch_rate * cfg.dt,
                          -cfg.pitch_limit, cfg.pitch_limit))
    bank_turn = float(np.clip((GRAVITY / speed) * math.tan(roll),
                              -cfg.turn_rate_max, cfg.turn_rate_max))
    heading = wrap_angle(state.heading + (rudder * cfg.yaw_rate + bank_turn) * cfg.dt)
    forward = nose(heading, pitch)
    return AircraftState(pos=state.pos + speed * forward * cfg.dt, speed=speed,
                         heading=heading, pitch=pitch, roll=roll, forward=forward)


def nose(heading: float, pitch: float) -> np.ndarray:
    """The unit nose vector, written out from heading and pitch."""
    return np.array([math.sin(heading) * math.cos(pitch),
                     math.cos(heading) * math.cos(pitch), math.sin(pitch)])


def relative_geometry(attacker, target):
    """dogfight.relative_geometry with np.linalg.norm and np.clip, and each nose
    rebuilt from heading and pitch rather than read from the state."""
    los = target.pos - attacker.pos
    dist = float(np.linalg.norm(los))
    if dist < 1e-9:
        return Geometry(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    u = los / dist
    cos_ata = float(np.clip(nose(attacker.heading, attacker.pitch) @ u, -1.0, 1.0))
    cos_aspect = float(np.clip(nose(target.heading, target.pitch) @ u, -1.0, 1.0))
    bearing = math.atan2(los[0], los[1])
    return Geometry(distance=dist, ata=math.acos(cos_ata), aspect=math.acos(cos_aspect),
                    cos_ata=cos_ata, az_err=wrap_angle(bearing - attacker.heading),
                    elev_err=math.atan2(los[2], math.hypot(los[0], los[1])) - attacker.pitch)


def expert_policy(geom, rng, cfg):
    """dogfight.expert_policy drawing each noise channel with a scalar
    ``rng.uniform(-noise, noise)`` call."""
    mag, noise = cfg.expert_magnitude, cfg.expert_noise
    throttle = -mag if geom.aspect < cfg.brake_aspect and geom.distance < cfg.brake_range \
        else mag
    if abs(geom.elev_err) > cfg.expert_deadband:
        elevator = math.copysign(mag, geom.elev_err)
    else:
        elevator = float(rng.uniform(-noise, noise))
    roll = float(rng.uniform(-noise, noise))
    if abs(geom.az_err) > cfg.expert_deadband:
        rudder = math.copysign(mag, geom.az_err)
    else:
        rudder = float(rng.uniform(-noise, noise))
    return np.array([throttle, elevator, roll, rudder])


# -- reference toy step --------------------------------------------------------------

def toy_step(pos, action, cfg):
    """ToyEnv.step's move on arrays: np.clip's bits from np.minimum/np.maximum.

    Returns (next position, reward there)."""
    action = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), -1.0), 1.0)
    pos = np.minimum(np.maximum(pos + cfg.step_size * action, -1.0), 1.0)
    return pos, toy_reward(pos, cfg)


def toy_reward(pos, cfg):
    """ToyEnv.reward_at on arrays: squared distances to every goal at once."""
    d2 = ((np.asarray(cfg.goals, dtype=np.float64) - pos) ** 2).sum(axis=1)
    rewards = np.asarray(cfg.goal_rewards, dtype=np.float64)
    return float((rewards * np.exp(-d2 / cfg.bump_scale)).max())


# -- reference per-learner reward phase ----------------------------------------------

def normalize(stat, obs):
    """Whiten ``obs`` by a running statistic, np.clip-clamped to ``OBS_CLIP``."""
    std = np.maximum(stat.std, 1e-8)
    z = (np.asarray(obs, dtype=np.float64) - stat.mean) / std
    return np.clip(z, -OBS_CLIP, OBS_CLIP)


def scale_reward(stat, ret: float, gamma: float, reward: float, done: bool) -> tuple:
    """One reward-scaling step on plain floats: update the discounted return
    and its statistic, divide the reward by that std, reset on ``done``.

    Returns (scaled reward, the return carried to the next step).
    """
    ret = gamma * ret + reward
    m2_row = (ret - ret) * (ret - ret)
    if stat.count == 0.0:
        count, mean, m2 = 1.0, ret, m2_row
    else:
        count = stat.count + 1
        delta = ret - float(stat.mean)
        mean = float(stat.mean) + delta * (1 / count)
        m2 = float(stat.m2) + m2_row + delta * delta * (stat.count / count)
    stat.count, stat.mean, stat.m2 = count, np.array(mean), np.array(m2)
    std = math.sqrt(max(m2 / count, 0.0)) if count >= 2 else 1.0
    return reward / max(std, 1e-8), 0.0 if done else ret


def collect_rollout(policy, value_fn, env, steps, rng, obs_stat, ret_stat, ret, gamma,
                    initial_obs=None, carry_return=0.0) -> tuple:
    """One learner's rollout, one step at a time with one-row forwards.

    Returns (buffer, ret, the raw continuation observation or None if the
    last step ended an episode, the sparse return pending on it).
    """
    obs = env.reset(rng) if initial_obs is None else np.asarray(initial_obs, dtype=np.float64)
    obs_n, raw, acts, logps, rews, vals, dones = [], [], [], [], [], [], []
    episode_returns = []
    ep_sparse = float(carry_return) if initial_obs is not None else 0.0
    for _ in range(steps):
        update_stat(obs_stat, obs)
        x = normalize(obs_stat, obs)
        mu, ls = policy.gaussian_batch(x[None])
        std = np.exp(ls)
        action = mu[0] + std * rng.standard_normal(std.shape)
        z = (action - mu[0]) / std
        logp = float(np.sum(-0.5 * z * z - ls - 0.5 * float(np.log(2.0 * np.pi))))
        value = value_fn.value(x)
        next_obs, reward, done, info = env.step(action)
        ep_sparse += info["sparse_reward"]
        reward, ret = scale_reward(ret_stat, ret, gamma, float(reward), done)
        obs_n.append(x)
        raw.append(np.array(obs))
        acts.append(action)
        logps.append(logp)
        rews.append(float(reward))
        vals.append(value)
        dones.append(done)
        if done:
            episode_returns.append(ep_sparse)
            ep_sparse = 0.0
            obs = env.reset(rng)
        else:
            obs = next_obs
    if dones[-1]:
        bootstrap, final_obs = 0.0, None
    else:
        bootstrap, final_obs = value_fn.value(normalize(obs_stat, obs)), np.array(obs)
    buffer = RolloutBuffer(
        obs=np.asarray(obs_n), raw_obs=np.asarray(raw), actions=np.asarray(acts),
        log_probs=np.asarray(logps), rewards=np.asarray(rews), values=np.asarray(vals),
        dones=np.asarray(dones, dtype=bool), bootstrap_value=float(bootstrap),
        episode_returns=episode_returns)
    return buffer, ret, final_obs, 0.0 if dones[-1] else ep_sparse


def evaluate(policy, env, rng, episodes=10) -> EvalResult:
    """One policy's evaluation, episode after episode with one-row forwards."""
    totals, bds = [], []
    for _ in range(episodes):
        obs = env.reset(rng)
        done, total, actions, info = False, 0.0, [], {}
        while not done:
            mu, _ = policy.gaussian_batch(np.asarray(obs)[None])
            action = mu[0]
            obs, _, done, info = env.step(action)
            total += info["sparse_reward"]
            actions.append(action)
        totals.append(total)
        bd = env.episode_bd(np.asarray(actions), info)
        if bd is not None:
            bds.append(np.asarray(bd, dtype=np.float64))
    return EvalResult(fitness=float(np.mean(totals)),
                      bd=np.mean(np.stack(bds), axis=0) if bds else None)


def finite_runs(mask) -> list:
    """Contiguous (start, stop) runs of True indices, by one scan of the mask."""
    runs, start = [], None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs
