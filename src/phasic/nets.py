"""Small tanh MLP policies and value functions with hand-written backprop.

Parameters live in a single flat float64 vector so population snapshots,
archive copies, and gradient updates are plain array operations.  A policy
maps observations to either a diagonal Gaussian (state-independent learnable
log-std) or a categorical over discrete actions.  The reverse-mode passes are
written out explicitly and are exact for the forward computation.  Each
backward takes the cache its forward returned under ``with_cache=True`` (the
layer inputs, and for ``probs_batch`` the probabilities too) and never runs
the forward again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kernels import last_axis_sum

BLOB_VERSION = 1
# bounds on a Gaussian policy's log-std, so its exponentials stay finite
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
# the clamp on whitened observations, and the floor on the std they are
# divided by, for live learners and frozen views alike
OBS_CLIP = 10.0
OBS_STD_FLOOR = 1e-8


@dataclass(frozen=True)
class ActionSpace:
    kind: str  # 'continuous' | 'discrete'
    dim: int

    def __post_init__(self):
        if self.kind not in ("continuous", "discrete"):
            raise ValueError(f"unknown action space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("action dimension must be >= 1")


class _Mlp:
    """Layout and forward/backward passes for one fully-connected tanh stack.

    The flat-vector layout (slice bounds and shapes) is fixed at construction,
    so a pass does no per-call bookkeeping.  Hidden layers apply tanh and the
    output layer is linear.  The passes take ``layers``, the per-layer views
    that ``layers(flat)`` returns; stacked (M, ·) weights run ``forward``
    over (M, N, in) inputs (see ``stacked_forward``).
    """

    def __init__(self, sizes):
        self.sizes = tuple(int(s) for s in sizes)
        if len(self.sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self._slices = []  # (start, stop, shape) of each weight and bias
        off = 0
        for a, b in zip(self.sizes[:-1], self.sizes[1:]):
            for shape, size in (((b, a), b * a), ((b,), b)):  # weight, bias
                self._slices.append((off, off + size, shape))
                off += size
        self.n_params = off

    def unpack(self, flat: np.ndarray):
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in self._slices]

    def layers(self, flat: np.ndarray):
        """Per-layer (weight, weight transposed, bias) views into ``flat``."""
        views = self.unpack(flat)
        return [(w, w.T, b) for w, b in zip(views[0::2], views[1::2])]

    def init_params(self, rng: np.random.Generator, out_gain: float) -> np.ndarray:
        flat = np.zeros(self.n_params)
        views = self.unpack(flat)
        n_layers = len(self.sizes) - 1
        for layer in range(n_layers):
            gain = out_gain if layer == n_layers - 1 else np.sqrt(2.0)
            views[2 * layer][...] = _orthogonal(views[2 * layer].shape, gain, rng)
        return flat

    def forward(self, layers, x: np.ndarray):
        """Returns (output (N, out), each layer's input for backward).

        Each layer allocates one array, its matmul's result, and adds the
        bias and applies tanh to it in place; ``x`` is never written.
        """
        last = len(layers) - 1
        inputs = []
        h = x
        for layer, (_, wt, b) in enumerate(layers):
            inputs.append(h)
            h = h @ wt
            h += b
            if layer < last:
                np.tanh(h, out=h)
        return h, inputs

    def backward(self, layers, inputs, dout: np.ndarray) -> np.ndarray:
        """Flat parameter gradient; writes neither ``dout`` nor ``inputs``.

        Each weight and bias gradient is written straight into its view of
        the flat vector, which the views tile, so it starts uninitialized.
        """
        grad = np.empty(self.n_params)
        gviews = self.unpack(grad)
        dz = dout
        for layer in range(len(layers) - 1, -1, -1):
            a = inputs[layer]
            np.matmul(dz.T, a, out=gviews[2 * layer])
            np.add.reduce(dz, axis=0, out=gviews[2 * layer + 1])
            if layer > 0:  # a = tanh(z) of the layer below, so tanh'(z) = 1 - a^2
                d = np.multiply(a, a)
                np.subtract(1.0, d, out=d)
                dz = dz @ layers[layer][0]
                dz *= d
        return grad


def _stack(topology: dict, out_dim: int) -> _Mlp:
    """The tanh stack a topology describes.

    Topologies and saved blobs name their activation; only ``"tanh"`` exists.
    """
    activation = topology.get("activation", "tanh")
    if activation != "tanh":
        raise ValueError(f"unsupported activation {activation!r}; networks are tanh stacks")
    return _Mlp((topology["obs_dim"], *topology["hidden"], out_dim))


def _orthogonal(shape, gain: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal(shape)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == shape else vt
    return gain * q


class _Net:
    """Immutable flat-parameter tanh network: what policies and value functions share.

    Each instance unpacks its weight views once; they alias ``params`` and,
    like it, are read-only.
    """

    def __init__(self, topology: dict, params: np.ndarray, out_dim: int = 1):
        self.topology = dict(topology)
        self.topology["hidden"] = tuple(self.topology["hidden"])  # JSON-safe canonical form
        self._mlp = _stack(self.topology, out_dim)
        self._set_params(params)

    def _set_params(self, params: np.ndarray, n_extra: int = 0) -> None:
        """Copy ``params`` read-only; the first ``_mlp.n_params`` are the layers."""
        n_net = self._mlp.n_params
        params = np.asarray(params, dtype=np.float64).copy()
        if params.shape != (n_net + n_extra,):
            raise ValueError(f"expected {n_net + n_extra} parameters, "
                             f"got {params.shape}")
        params.setflags(write=False)
        self.params = params
        self._layers = self._mlp.layers(params[:n_net])

    def with_params(self, params: np.ndarray):
        """Same topology and layout (the same ``_mlp``), new parameters."""
        out = object.__new__(type(self))
        vars(out).update(vars(self))
        out._set_params(params)
        return out

    @property
    def n_params(self) -> int:
        return self.params.size

    def _forward(self, states):
        """(output (N, out), each layer's input for ``_mlp.backward``)."""
        return self._mlp.forward(self._layers, np.asarray(states, dtype=np.float64))


class Policy(_Net):
    """Policy network; a continuous one clamps its log-std tail once, read-only."""

    def __init__(self, topology: dict, params: np.ndarray):
        self.action_space = ActionSpace(**topology["action_space"])
        super().__init__(topology, params, self.action_space.dim)

    def _set_params(self, params: np.ndarray) -> None:
        continuous = self.action_space.kind == "continuous"
        super()._set_params(params, self.action_space.dim if continuous else 0)
        if continuous:
            self._log_std = self.params[self._mlp.n_params:]
            self._clamped_log_std = np.minimum(np.maximum(self._log_std, LOG_STD_MIN),
                                               LOG_STD_MAX)
            self._clamped_log_std.setflags(write=False)
        else:
            self._log_std = self._clamped_log_std = None

    @classmethod
    def init(cls, obs_dim: int, action_space: ActionSpace, rng: np.random.Generator,
             hidden=(64, 64)) -> "Policy":
        """Orthogonal layers (output gain 0.01); a continuous policy's log-std starts at 0."""
        topology = {"obs_dim": int(obs_dim), "hidden": tuple(int(h) for h in hidden),
                    "activation": "tanh",
                    "action_space": {"kind": action_space.kind, "dim": action_space.dim}}
        flat = _stack(topology, action_space.dim).init_params(rng, out_gain=0.01)
        if action_space.kind == "continuous":
            flat = np.concatenate([flat, np.zeros(action_space.dim)])
        return cls(topology, flat)

    # -- forward ----------------------------------------------------------

    @property
    def log_std(self) -> np.ndarray:
        """Clamped log-std (A,), read-only; continuous policies only."""
        if self._log_std is None:
            raise ValueError("log_std of a discrete policy")
        return self._clamped_log_std

    def gaussian_batch(self, states: np.ndarray, with_cache: bool = False):
        """(means (N, A), clamped log_std (A,), read-only) for continuous policies.

        ``with_cache`` appends the layer inputs that ``backward_gaussian``
        takes as its ``cache``.
        """
        if self._log_std is None:
            raise ValueError("gaussian_batch on a discrete policy")
        out, cache = self._forward(states)
        return (out, self._clamped_log_std, cache) if with_cache else (out, self._clamped_log_std)

    def probs_batch(self, states: np.ndarray, with_cache: bool = False):
        """Softmax probabilities (N, K) for discrete policies.

        ``with_cache`` appends what ``backward_probs`` takes as its ``cache``:
        the layer inputs and these probabilities.
        """
        if self.action_space.kind != "discrete":
            raise ValueError("probs_batch on a continuous policy")
        out, inputs = self._forward(states)
        p = _softmax(out)
        return (p, (inputs, p)) if with_cache else p

    # -- reverse mode -----------------------------------------------------

    def backward_gaussian(self, cache, d_mu: np.ndarray, d_log_std: np.ndarray) -> np.ndarray:
        """Flat parameter gradient from upstream gradients on (mean, log_std).

        ``cache`` is the layer-input list that ``gaussian_batch(...,
        with_cache=True)`` returned with the means.
        """
        log_std = self._log_std
        if log_std is None:
            raise ValueError("backward_gaussian on a discrete policy")
        g_net = self._mlp.backward(self._layers, cache, np.asarray(d_mu, dtype=np.float64))
        # gradient is blocked where the clamp is active
        mask = (log_std > LOG_STD_MIN) & (log_std < LOG_STD_MAX)
        return np.concatenate([g_net, np.asarray(d_log_std, dtype=np.float64) * mask])

    def backward_logits(self, inputs, d_logits: np.ndarray) -> np.ndarray:
        """Flat parameter gradient from an upstream gradient on the logits;
        ``inputs`` are the layer inputs of the forward."""
        return self._mlp.backward(self._layers, inputs, np.asarray(d_logits, dtype=np.float64))

    def backward_probs(self, cache, d_probs: np.ndarray) -> np.ndarray:
        """Upstream on softmax probabilities, routed through the softmax Jacobian.

        ``cache`` is the (layer inputs, probabilities) pair that
        ``probs_batch(..., with_cache=True)`` returned.
        """
        if self.action_space.kind != "discrete":
            raise ValueError("backward_probs on a continuous policy")
        inputs, p = cache
        d_probs = np.asarray(d_probs, dtype=np.float64)
        inner = last_axis_sum(d_probs * p)[:, None]
        return self.backward_logits(inputs, p * (d_probs - inner))


class ValueFunction(_Net):
    """Scalar-output network sharing the Policy parameter conventions."""

    @classmethod
    def init(cls, obs_dim: int, rng: np.random.Generator,
             hidden=(64, 64)) -> "ValueFunction":
        topology = {"obs_dim": int(obs_dim), "hidden": tuple(int(h) for h in hidden),
                    "activation": "tanh"}
        return cls(topology, _stack(topology, 1).init_params(rng, out_gain=1.0))

    def value_batch(self, states: np.ndarray, with_cache: bool = False):
        """Values (N,); ``with_cache`` adds the layer inputs ``backward`` takes."""
        out, cache = self._forward(states)
        return (out[:, 0], cache) if with_cache else out[:, 0]

    def value(self, obs: np.ndarray) -> float:
        out, _ = self._forward(np.asarray(obs, dtype=np.float64)[None])
        return float(out[0, 0])

    def backward(self, cache, d_value: np.ndarray) -> np.ndarray:
        """Flat parameter gradient; ``cache`` is the layer-input list that
        ``value_batch(..., with_cache=True)`` returned."""
        return self._mlp.backward(self._layers, cache,
                                  np.asarray(d_value, dtype=np.float64)[:, None])


@dataclass(frozen=True)
class NormalizedPolicy:
    """Policy composed with a frozen observation normalizer.

    What a learner is evaluated as and what the archive stores: each
    snapshot's own normalization constants travel with its parameters.  The
    view keeps read-only copies of ``obs_mean`` and of ``obs_std`` floored at
    ``OBS_STD_FLOOR``, so the caller may go on updating the arrays it passed
    in.  A forward's cache starts with the whitened, clamped batch, so the
    reverse passes hand that cache to the policy's as it is.
    """

    policy: Policy
    obs_mean: np.ndarray
    obs_std: np.ndarray

    def __post_init__(self):
        mean = np.array(self.obs_mean, dtype=np.float64)
        std = np.maximum(np.asarray(self.obs_std, dtype=np.float64), OBS_STD_FLOOR)
        for name, value in (("obs_mean", mean), ("obs_std", std)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def action_space(self) -> ActionSpace:
        return self.policy.action_space

    @property
    def params(self) -> np.ndarray:
        return self.policy.params

    def with_params(self, params: np.ndarray) -> "NormalizedPolicy":
        return NormalizedPolicy(self.policy.with_params(params), self.obs_mean, self.obs_std)

    def _tx(self, states: np.ndarray) -> np.ndarray:
        return whiten(states, self.obs_mean, self.obs_std)

    def gaussian_batch(self, states, with_cache: bool = False):
        return self.policy.gaussian_batch(self._tx(states), with_cache=with_cache)

    def probs_batch(self, states, with_cache: bool = False):
        return self.policy.probs_batch(self._tx(states), with_cache=with_cache)

    def backward_gaussian(self, cache, d_mu, d_log_std):
        return self.policy.backward_gaussian(cache, d_mu, d_log_std)

    def backward_probs(self, cache, d_probs):
        return self.policy.backward_probs(cache, d_probs)


def stacked_forward(nets):
    """One forward over M networks of one layout, for (M, ..., N, in) inputs.

    Takes policies or value functions.  Their layer weights are stacked once
    into (M, out, in) arrays, with (M, in, out) transposed views and (M, 1,
    out) biases, and ``_Mlp.forward`` maps (M, N, in) inputs to (M, N, out)
    outputs.  Each network's rows carry the bits of its own pass.  Inputs with
    axes between M and N, such as (M, T, 1, in), broadcast the weights over
    them, so each (N, in) block is a matmul of its own: T one-row blocks give
    the bits of T one-row passes, which one (M, T, in) batch need not.
    """
    mlp = nets[0]._mlp
    if any(net._mlp.sizes != mlp.sizes for net in nets):
        raise ValueError("stacked networks must share one layout")
    layers = []
    for k in range(len(mlp.sizes) - 1):
        w = np.stack([net._layers[k][0] for net in nets])
        b = np.stack([net._layers[k][2] for net in nets])[:, None]
        layers.append((w, w.swapaxes(-1, -2), b))

    def forward(x):
        if x.ndim == 3:
            return mlp.forward(layers, x)[0]
        axes = (slice(None),) + (None,) * (x.ndim - 3)
        return mlp.forward([(w[axes], wt[axes], b[axes]) for w, wt, b in layers], x)[0]
    return forward


def whiten(states: np.ndarray, mean, std) -> np.ndarray:
    """(states - mean) / std clamped to [-OBS_CLIP, OBS_CLIP]; ``std`` comes floored.

    np.clip's bits without its per-call wrapper cost on the per-step path.
    """
    z = (np.asarray(states, dtype=np.float64) - mean) / std
    return np.minimum(np.maximum(z, -OBS_CLIP), OBS_CLIP)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / last_axis_sum(e)[:, None]


# -- serialization --------------------------------------------------------

def save_policy(path, policy: Policy, extra: dict | None = None) -> None:
    """Versioned binary blob: topology descriptor + parameters (+ extra arrays)."""
    arrays = {"params": policy.params}
    if extra:
        arrays.update({f"extra_{k}": np.asarray(v) for k, v in extra.items()})
    np.savez(path, version=np.int64(BLOB_VERSION),
             topology=np.frombuffer(json.dumps(policy.topology).encode(), dtype=np.uint8),
             **arrays)


def load_policy(path):
    """Returns (policy, extra dict) from a save_policy blob."""
    with np.load(path) as blob:
        version = int(blob["version"])
        if version != BLOB_VERSION:
            raise ValueError(f"unsupported blob version {version}")
        topology = json.loads(bytes(blob["topology"]).decode())
        extra = {k[len("extra_"):]: blob[k] for k in blob.files if k.startswith("extra_")}
        return Policy(topology, blob["params"]), extra

