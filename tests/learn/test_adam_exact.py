"""Exact differential test of the flat Adam update.

The oracle is a frozen copy of the per-parameter Adam step the flat update
replaced: one moment pair per named parameter, updated in place. The flat
update keeps every elementwise operation, so after any number of steps the
weights must equal the oracle's to the byte.
"""

import numpy as np
import pytest

from repro.abr.pensieve.model import ActorCritic
from repro.core.features import FEATURE_DIM, N_TIME_BINS
from repro.learn.layers import Linear
from repro.learn.network import MLP
from repro.learn.optim import Adam


class ReferenceAdam:
    """The per-parameter Adam step, frozen."""

    def __init__(self, model, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.model = model
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self):
        self._t += 1
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for name, value, grad in self.model.parameters():
            if self.weight_decay:
                grad = grad + self.weight_decay * value
            m = self._m.setdefault(name, np.zeros_like(value))
            v = self._v.setdefault(name, np.zeros_like(value))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def weight_bytes(model):
    return [value.tobytes() for _, value, _ in model.parameters()]


def grad_bytes(model):
    return [grad.tobytes() for _, _, grad in model.parameters()]


def ttp_mlp(seed):
    return MLP(FEATURE_DIM, [64, 64], N_TIME_BINS,
               rng=np.random.default_rng(seed))


def pensieve_actor(seed):
    return ActorCritic(seed=seed).actor


def pensieve_critic(seed):
    return ActorCritic(seed=seed).critic


def linear_only(seed):
    return MLP(FEATURE_DIM, [], N_TIME_BINS, rng=np.random.default_rng(seed))


@pytest.mark.parametrize(
    "make", [ttp_mlp, pensieve_actor, pensieve_critic, linear_only]
)
@pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.3])
@pytest.mark.parametrize("lr", [1e-3, 5e-2])
def test_flat_step_matches_per_parameter_step(make, weight_decay, lr):
    flat_model, ref_model = make(3), make(3)
    assert weight_bytes(flat_model) == weight_bytes(ref_model)
    flat = Adam(flat_model, lr=lr, weight_decay=weight_decay)
    ref = ReferenceAdam(ref_model, lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(7)
    for step in range(12):
        # Real gradients of varied scale (incl. exact zeros) on both copies.
        for (_, _, g_flat), (_, _, g_ref) in zip(
            flat_model.parameters(), ref_model.parameters()
        ):
            grad = rng.normal(0.0, 10.0 ** rng.integers(-6, 3), g_flat.shape)
            grad[rng.random(g_flat.shape) < 0.1] = 0.0
            g_flat[...] = grad
            g_ref[...] = grad
        flat.step()
        ref.step()
        assert weight_bytes(flat_model) == weight_bytes(ref_model), step
        # The step reads the gradients and leaves them as they were.
        assert grad_bytes(flat_model) == grad_bytes(ref_model), step


def test_training_loop_bit_equal():
    """Forward/backward/step on the TTP shape: gradients depend on the
    weights, so any drift would compound over the steps."""
    from repro.learn.losses import SoftmaxCrossEntropy

    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, FEATURE_DIM))
    y = rng.integers(0, N_TIME_BINS, 64)
    w = rng.random(64)
    models = [ttp_mlp(1), ttp_mlp(1)]
    optimizers = [Adam(models[0], weight_decay=1e-3),
                  ReferenceAdam(models[1], weight_decay=1e-3)]
    loss = SoftmaxCrossEntropy()
    for _ in range(20):
        for model, optimizer in zip(models, optimizers):
            _, grad = loss(model.forward(x), y, w)
            model.zero_grad()
            model.backward(grad)
            optimizer.step()
        assert weight_bytes(models[0]) == weight_bytes(models[1])


def test_single_layer_model():
    layer, ref_layer = (Linear(3, 2, rng=np.random.default_rng(0))
                        for _ in range(2))
    flat, ref = Adam(layer, lr=0.1), ReferenceAdam(ref_layer, lr=0.1)
    for _ in range(5):
        for target in (layer, ref_layer):
            target.grad_weight[...] = 1.5
            target.grad_bias[...] = -0.25
        flat.step()
        ref.step()
    assert weight_bytes(layer) == weight_bytes(ref_layer)
