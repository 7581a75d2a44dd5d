"""Adam optimizer over flat parameter vectors, with snapshotable state."""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, size: int, lr: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One descent step on ``grad``; returns the new parameter vector."""
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def state_dict(self) -> dict:
        return {"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
                "m": self.m.copy(), "v": self.v.copy(), "t": self.t}

    @classmethod
    def from_state(cls, state: dict) -> "Adam":
        opt = cls(0, state["lr"], state["beta1"], state["beta2"], state["eps"])
        opt.m = np.asarray(state["m"], dtype=np.float64).copy()
        opt.v = np.asarray(state["v"], dtype=np.float64).copy()
        opt.t = int(state["t"])
        return opt
