"""Adam optimizer over flat parameter vectors, with snapshotable state."""

from __future__ import annotations

import numpy as np

# the moment decay rates and the denominator's floor of the Adam paper
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, size: int, lr: float = 3e-4):
        self.lr = float(lr)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One descent step on ``grad``; returns the new parameter vector."""
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        mhat = self.m / (1.0 - BETA1 ** self.t)
        vhat = self.v / (1.0 - BETA2 ** self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + EPS)

    def state_dict(self) -> dict:
        return {"lr": self.lr, "m": self.m.copy(), "v": self.v.copy(), "t": self.t}

    @classmethod
    def from_state(cls, state: dict) -> "Adam":
        opt = cls(0, state["lr"])
        opt.m = np.asarray(state["m"], dtype=np.float64).copy()
        opt.v = np.asarray(state["v"], dtype=np.float64).copy()
        opt.t = int(state["t"])
        return opt
