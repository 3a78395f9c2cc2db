"""Adam and AdamW on named float32 parameter tensors.

AdamW applies weight decay decoupled from the gradient moments: the decay
shrinks the parameter toward zero as a separate step, so decay never leaks
into the running m/v statistics.  With weight_decay == 0 the decay statement
is skipped entirely, which makes AdamW bitwise identical to Adam on the same
gradient sequence.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class Adam:
    """Adam with bias correction and optional per-step lr decay.

    `params` is a list of (name, Tensor) pairs; names key the m/v moment
    arrays, which live only as long as the optimizer.
    """

    weight_decay = 0.0

    def __init__(self, params, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 lr_decay: float = 0.0):
        self.params: list[tuple[str, Tensor]] = [(str(n), p) for n, p in params]
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in optimizer")
        self.lr = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.lr_decay = float(lr_decay)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update from the gradients currently stored on the parameters.

        A parameter whose grad is None is treated as having a zero gradient
        (its moments still decay).
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if self.weight_decay:
                p.data -= np.float32(self.lr * self.weight_decay) * p.data
            m = self.m[name]
            v = self.v[name]
            m *= np.float32(b1)
            m += np.float32(1.0 - b1) * g
            v *= np.float32(b2)
            v += np.float32(1.0 - b2) * (g * g)
            mhat = m / np.float32(bc1)
            vhat = v / np.float32(bc2)
            p.data -= np.float32(self.lr) * mhat / (np.sqrt(vhat) + np.float32(self.epsilon))
        if self.lr_decay:
            self.lr *= (1.0 - self.lr_decay)


class AdamW(Adam):
    """Adam plus decoupled weight decay applied before each moment update."""

    def __init__(self, params, learning_rate: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.0, lr_decay: float = 0.0):
        super().__init__(params, learning_rate, beta1, beta2, epsilon, lr_decay)
        self.weight_decay = float(weight_decay)
