"""Stochastic model-predictive controller (§4.4).

The controller maximizes expected cumulative QoE (Eq. 1) over an H-step
lookahead horizon by value iteration over a discretized playback buffer,
exactly as the paper describes: "the controller computes the optimal
trajectory by solving the above value iteration with dynamic programming...
it discretizes B_i into bins".

One controller serves MPC-HM, RobustMPC-HM, and Fugu — they differ only in
the :class:`TransmissionTimeModel` supplying ``P[T̂(K_i^s) = T_j]``:

* the harmonic-mean predictor returns a *point mass* (a single predicted
  time per candidate size);
* Fugu's TTP returns a full 21-bin probability distribution.

The implementation is a backward pass over the whole buffer grid, stacked
over the horizon. It first asks the model for every step's distribution
(last step first), then computes in one numpy pass everything the
continuation value does not depend on: each step's stall, immediate reward,
next-buffer bin and variation penalty. The backward loop is then left with
a gather from the next step's (bin, rung) value table, the expectation over
outcomes and the max over rungs. Step 0 is evaluated at the current
buffer's bin only, the one column the decision reads. Every lookahead menu
must have the same number of rungs and the model the same number of
outcomes at every step; both are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

import numpy as np

from repro import obs
from repro.core.qoe import DEFAULT_QOE, QoeParams

if TYPE_CHECKING:  # typing only; avoids a circular import with repro.abr
    from repro.abr.base import AbrContext

DEFAULT_HORIZON = 5
"""Planning horizon in chunks (~10 s of video, §4.5)."""

DEFAULT_BUFFER_BIN_S = 0.5
"""Buffer discretization step. The paper only says the buffer is
"discretize[d] into bins"; half-second bins keep the planner's error well
under one chunk duration while halving the DP's state space."""


@dataclass(frozen=True)
class TimeDistribution:
    """Predicted transmission-time distribution for each candidate version.

    ``times[a, j]`` is the j-th possible transmission time of version ``a``
    and ``probs[a, j]`` its probability; rows sum to 1. A deterministic
    predictor uses a single column.
    """

    times: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        # Only shape checks here: this sits on the per-decision hot path.
        # Full numeric validation is available via validate().
        if self.times.shape != self.probs.shape:
            raise ValueError("times and probs must share a shape")
        if self.times.ndim != 2:
            raise ValueError("expected a (n_versions, n_outcomes) matrix")

    def validate(self) -> None:
        """Full numeric sanity checks (used by tests and custom models)."""
        if np.any(self.times < 0):
            raise ValueError("transmission times must be non-negative")
        if np.any(self.probs < -1e-12):
            raise ValueError("probabilities must be non-negative")
        row_sums = self.probs.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            raise ValueError("each version's probabilities must sum to 1")

    @classmethod
    def point_mass(cls, times: Sequence[float]) -> "TimeDistribution":
        """Deterministic prediction: one outcome per version."""
        arr = np.asarray(times, dtype=float).reshape(-1, 1)
        return cls(times=arr, probs=np.ones_like(arr))


class TransmissionTimeModel(Protocol):
    """Supplies predicted transmission-time distributions to the planner."""

    def predict(
        self, context: "AbrContext", step: int, sizes_bytes: np.ndarray
    ) -> TimeDistribution:
        """Distribution over transmission times for each candidate size of
        the chunk ``step`` positions ahead of the current one (step 0 is the
        chunk being decided)."""
        ...


class ValueIterationController:
    """H-step stochastic MPC over a discretized buffer (§4.4–4.5)."""

    def __init__(
        self,
        qoe: QoeParams = DEFAULT_QOE,
        horizon: int = DEFAULT_HORIZON,
        max_buffer_s: float = 15.0,
        buffer_bin_s: float = DEFAULT_BUFFER_BIN_S,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if max_buffer_s <= 0 or buffer_bin_s <= 0:
            raise ValueError("buffer parameters must be positive")
        self.qoe = qoe
        self.horizon = horizon
        self.max_buffer_s = max_buffer_s
        self.buffer_bin_s = buffer_bin_s
        self._grid = np.arange(0.0, max_buffer_s + buffer_bin_s / 2, buffer_bin_s)

    def _bin_index(self, buffer_s: np.ndarray) -> np.ndarray:
        """Nearest grid bin of each buffer level; overwrites ``buffer_s``."""
        buffer_s /= self.buffer_bin_s
        idx: np.ndarray = np.rint(buffer_s, out=buffer_s).astype(int)
        np.minimum(idx, len(self._grid) - 1, out=idx)
        np.maximum(idx, 0, out=idx)
        return idx

    def plan(
        self,
        context: AbrContext,
        model: TransmissionTimeModel,
    ) -> int:
        """Return the ladder index to send for ``context.menu``.

        Plans over ``min(horizon, len(context.lookahead))`` steps; replanning
        after every chunk (receding horizon) is the caller's responsibility,
        which the ABR wrapper performs naturally by calling ``plan`` per
        chunk.
        """
        steps = min(self.horizon, len(context.lookahead))
        if steps == 0:
            raise ValueError("lookahead must contain at least one menu")
        if obs.ENABLED:
            obs.counter_inc("controller.plans")
            obs.counter_inc("controller.plan_steps", float(steps))
        with obs.span("controller.plan"):
            return int(np.argmax(self._scores(context, model, steps)))

    def _scores(
        self,
        context: "AbrContext",
        model: TransmissionTimeModel,
        steps: int,
    ) -> np.ndarray:
        """Expected QoE-to-go of each rung of ``context.menu``."""
        menus = context.lookahead[:steps]
        n_rungs = len(menus[0])
        if any(len(menu) != n_rungs for menu in menus):
            raise ValueError("lookahead menus must share one rung count")

        # Predict every step first, last step first as the backward pass
        # consumes them (models may keep state between calls).
        dists: List[TimeDistribution] = []
        for step in range(steps - 1, -1, -1):
            dist = model.predict(context, step, menus[step].size_array)
            if dist.times.shape[0] != n_rungs:
                raise ValueError("model returned wrong number of versions")
            if dists and dist.times.shape[1] != dists[0].times.shape[1]:
                raise ValueError(
                    "model returned a different outcome count at another step"
                )
            dists.append(dist)
        dists.reverse()
        times = np.array([dist.times for dist in dists])  # (steps, rungs, k)
        probs = np.array([dist.probs for dist in dists])
        qualities = np.array([menu.ssim_array for menu in menus])
        durations = np.array([menu.duration for menu in menus])

        # Everything the continuation value does not depend on, for every
        # step, rung, buffer bin and outcome at once: (steps, rungs, bins,
        # k). For a 21-outcome model these are the planner's largest arrays,
        # so each is built in place.
        t = times[:, :, None, :]
        b = self._grid[None, None, :, None]
        next_buffer = b - t
        np.maximum(next_buffer, 0.0, out=next_buffer)
        next_buffer += durations[:, None, None, None]
        np.minimum(next_buffer, self.max_buffer_s, out=next_buffer)
        # Flat index of (next bin, this rung) in the (bins, rungs) value
        # table the following step leaves behind.
        flat = self._bin_index(next_buffer)
        flat *= n_rungs
        flat += np.arange(n_rungs)[:, None, None]
        # Reward without the variation term, q_a - µ · max(t - b, 0), in
        # the array _bin_index has spent.
        immediate = next_buffer
        np.subtract(t, b, out=immediate)
        np.maximum(immediate, 0.0, out=immediate)
        np.multiply(self.qoe.stall_weight, immediate, out=immediate)
        np.subtract(
            self.qoe.quality_weight * qualities[:, :, None, None],
            immediate,
            out=immediate,
        )
        # penalty[s, a, p] = λ |q_a - q_p|, rung a at step s + 1 after rung
        # p at step s.
        penalty = self.qoe.variation_weight * np.abs(
            qualities[1:, :, None] - qualities[:-1, None, :]
        )

        # Backward pass. value[b, p] = max expected QoE-to-go from buffer
        # bin b when the previous chunk used rung p.
        value: Optional[np.ndarray] = None
        for step in range(steps - 1, 0, -1):
            reward = immediate[step]
            if value is not None:
                reward = value.take(flat[step])
                reward += immediate[step]
            reward *= probs[step, :, None, :]
            ev = reward.sum(axis=2)  # (rungs, bins)
            value = (ev[:, :, None] - penalty[step - 1][:, None, :]).max(axis=0)

        # Step 0 only at the current buffer's bin, the one the decision
        # reads: (rungs, k).
        b0 = self._bin_index(np.array([context.buffer_s], dtype=float))[0]
        reward0 = immediate[0, :, b0]
        if value is not None:
            reward0 = value.take(flat[0, :, b0]) + reward0
        scores: np.ndarray = (reward0 * probs[0]).sum(axis=1)
        if context.last_ssim_db is not None:
            scores -= self.qoe.variation_weight * np.abs(
                qualities[0] - context.last_ssim_db
            )
        return scores
