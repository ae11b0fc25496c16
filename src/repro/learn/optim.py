"""Optimizers operating in place on layer parameters."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.learn.layers import Layer

Array = np.ndarray


class Optimizer:
    """Base optimizer bound to a model's parameters."""

    def __init__(self, model: Layer, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = model
        self.lr = lr

    def _params(self) -> Iterable[Tuple[str, Array, Array]]:
        return self.model.parameters()

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        model: Layer,
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(model, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[str, Array] = {}

    def step(self) -> None:
        for name, value, grad in self._params():
            update = grad
            if self.weight_decay:
                update = update + self.weight_decay * value
            if self.momentum:
                vel = self._velocity.setdefault(name, np.zeros_like(value))
                vel *= self.momentum
                vel += update
                update = vel
            value -= self.lr * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        model: Layer,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(model, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Optional[Array] = None
        self._v: Optional[Array] = None
        self._t = 0

    def step(self) -> None:
        """One update of every parameter.

        The moments are kept flat over all parameters, so the update is a
        handful of array operations however many layers the model has;
        every operation is elementwise, so each weight gets exactly the
        bits of a per-parameter update.
        """
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        params = [(value, grad) for _, value, grad in self._params()]
        grad = np.concatenate([g.ravel() for _, g in params])
        if self.weight_decay:
            grad += self.weight_decay * np.concatenate(
                [value.ravel() for value, _ in params]
            )
        if self._m is None or self._v is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        np.square(grad, out=grad)
        grad *= 1.0 - self.beta2
        v += grad
        # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), in place.
        update = np.divide(m, bc1)
        update *= self.lr
        denom = np.divide(v, bc2, out=grad)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        start = 0
        for value, _ in params:
            end = start + value.size
            value -= update[start:end].reshape(value.shape)
            start = end
