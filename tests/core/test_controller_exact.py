"""Exact differential test of the stacked value-iteration planner.

The oracle below is a frozen copy of the per-step planner the stacked pass
replaced: one backward step at a time over (rung, bin, outcome) arrays,
rebuilding each menu's arrays per step and evaluating step 0 over the
whole buffer grid. The stacked planner keeps every IEEE operation, so its
score vectors must equal the oracle's to the byte, not merely pick the
same rung.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.base import AbrContext, ChunkRecord
from repro.abr.cs2p import Cs2pPredictor, DiscreteThroughputHmm
from repro.abr.mpc import HarmonicMeanPredictor
from repro.core.controller import TimeDistribution, ValueIterationController
from repro.core.features import N_TIME_BINS
from repro.core.qoe import QoeParams
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.media.chunk import ChunkMenu, EncodedChunk
from repro.media.encoder import encode_clip
from repro.media.ladder import PUFFER_LADDER
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo


def reference_scores(controller, context, model, steps):
    """The per-step planner, frozen: returns its step-0 score vector."""

    def bin_index(buffer_s):
        idx = np.rint(buffer_s / controller.buffer_bin_s).astype(int)
        return np.clip(idx, 0, len(controller._grid) - 1)

    qoe = controller.qoe
    menus = context.lookahead[:steps]
    n_bins = len(controller._grid)
    grid = controller._grid
    value = None
    first_step_ev = None
    for step in range(steps - 1, -1, -1):
        menu = menus[step]
        n_rungs = len(menu)
        sizes = np.asarray(menu.sizes)
        qualities = np.asarray(menu.ssims_db)
        duration = menu.duration
        dist = model.predict(context, step, sizes)
        if dist.times.shape[0] != n_rungs:
            raise ValueError("model returned wrong number of versions")
        times = dist.times
        probs = dist.probs
        t = times[:, None, :]
        b = grid[None, :, None]
        stall = np.maximum(t - b, 0.0)
        next_buffer = np.minimum(
            np.maximum(b - t, 0.0) + duration, controller.max_buffer_s
        )
        immediate = (
            qoe.quality_weight * qualities[:, None, None]
            - qoe.stall_weight * stall
        )
        if value is not None:
            nb_idx = bin_index(next_buffer)
            cont = value[nb_idx, np.arange(n_rungs)[:, None, None]]
            immediate = immediate + cont
        ev = (immediate * probs[:, None, :]).sum(axis=2)
        if step == 0:
            first_step_ev = ev
            break
        prev_menu = menus[step - 1]
        prev_qualities = np.asarray(prev_menu.ssims_db)
        penalty = qoe.variation_weight * np.abs(
            qualities[:, None] - prev_qualities[None, :]
        )
        candidate = ev[:, :, None] - penalty[:, None, :]
        value = candidate.max(axis=0).reshape(n_bins, len(prev_menu))

    qualities0 = np.asarray(menus[0].ssims_db)
    b0 = bin_index(np.asarray([context.buffer_s]))[0]
    scores = first_step_ev[:, b0].copy()
    if context.last_ssim_db is not None:
        scores -= qoe.variation_weight * np.abs(
            qualities0 - context.last_ssim_db
        )
    return scores


def info():
    return TcpInfo(
        cwnd=10, in_flight=2, min_rtt=0.04, rtt=0.06, delivery_rate=2e6
    )


def make_menu(chunk_index, sizes, ssims, duration):
    return ChunkMenu(
        [
            EncodedChunk(
                chunk_index=chunk_index,
                profile=PUFFER_LADDER[i],
                size_bytes=float(size),
                ssim_db=float(ssim),
                duration=duration,
            )
            for i, (size, ssim) in enumerate(zip(sizes, ssims))
        ]
    )


class TabularModel:
    """Fixed per-step outcome tables; records the steps it was asked for."""

    def __init__(self, tables):
        self.tables = tables
        self.calls = []

    def predict(self, context, step, sizes_bytes):
        self.calls.append(step)
        times, probs = self.tables[step]
        return TimeDistribution(times=times, probs=probs)


GRIDS = [(15.0, 0.5), (15.3, 0.5), (7.0, 0.7)]
"""(max_buffer_s, buffer_bin_s): the default grid and two whose maximum
is not a whole number of bins."""


@st.composite
def plan_case(draw):
    max_buffer_s, bin_s = draw(st.sampled_from(GRIDS))
    horizon = draw(st.integers(1, 5))
    n_menus = draw(st.integers(1, 6))  # may be shorter than the horizon
    n_rungs = draw(st.integers(1, 10))
    k = draw(st.sampled_from([1, 2, 3, 4, N_TIME_BINS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half_bins = int(max_buffer_s / bin_s) * 2 + 4
    buffer_s = draw(
        st.one_of(
            st.just(0.0),
            # Exact half-bin ties (0.25, 0.75, ... on the default grid):
            # rint rounds them half to even.
            st.integers(0, half_bins).map(lambda h: h * bin_s / 2),
            st.floats(0.0, max_buffer_s, allow_nan=False),
            st.floats(max_buffer_s, 4 * max_buffer_s, allow_nan=False),
        )
    )
    last_ssim_db = draw(st.one_of(st.none(), st.floats(0.0, 25.0)))
    tied_times = draw(st.booleans())

    menus, tables = [], []
    for index in range(n_menus):
        duration = draw(st.sampled_from([2.002, 2.0, bin_s]))
        sizes = np.sort(rng.uniform(5e4, 3e6, n_rungs))
        ssims = np.sort(rng.uniform(4.0, 20.0, n_rungs))
        menus.append(make_menu(index, sizes, ssims, duration))
        times = rng.uniform(0.0, 2.0 * max_buffer_s, (n_rungs, k))
        if tied_times:
            # Multiples of half a bin put next-buffer levels on ties.
            times = np.round(times / (bin_s / 2)) * (bin_s / 2)
        if k == N_TIME_BINS:
            logits = rng.normal(0.0, 3.0, (n_rungs, k))
            raw = np.exp(logits - logits.max(axis=1, keepdims=True))
        else:
            raw = rng.uniform(0.0, 1.0, (n_rungs, k)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        tables.append((times, probs))
    context = AbrContext(
        lookahead=menus,
        buffer_s=buffer_s,
        tcp_info=info(),
        last_ssim_db=last_ssim_db,
    )
    controller = ValueIterationController(
        qoe=QoeParams(),
        horizon=horizon,
        max_buffer_s=max_buffer_s,
        buffer_bin_s=bin_s,
    )
    return controller, context, tables


def assert_exact(controller, context, model):
    steps = min(controller.horizon, len(context.lookahead))
    expected = reference_scores(controller, context, model, steps)
    scores = controller._scores(context, model, steps)
    assert scores.dtype == expected.dtype
    assert scores.shape == expected.shape
    assert scores.tobytes() == expected.tobytes(), (scores, expected)
    assert controller.plan(context, model) == int(np.argmax(expected))


class TestStackedMatchesPerStep:
    @given(plan_case())
    @settings(max_examples=300, deadline=None)
    def test_scores_byte_equal(self, case):
        controller, context, tables = case
        assert_exact(controller, context, TabularModel(tables))

    @given(plan_case())
    @settings(max_examples=25, deadline=None)
    def test_predicts_every_step_last_first(self, case):
        controller, context, tables = case
        model = TabularModel(tables)
        controller.plan(context, model)
        steps = min(controller.horizon, len(context.lookahead))
        assert model.calls == list(range(steps - 1, -1, -1))


def record(i, throughput_bps, size=6e5):
    return ChunkRecord(
        chunk_index=i,
        rung=5,
        size_bytes=size,
        ssim_db=15.0,
        transmission_time=size * 8.0 / throughput_bps,
        info_at_send=info(),
        send_time=2.0 * i,
    )


def clip_context(buffer_s, n_history, seed=0, last_ssim_db=12.0):
    rng = np.random.default_rng(seed)
    history = [
        record(i, float(rng.uniform(5e5, 2e7))) for i in range(n_history)
    ]
    return AbrContext(
        lookahead=encode_clip(DEFAULT_CHANNELS[1], 5, seed=seed),
        buffer_s=buffer_s,
        tcp_info=info(),
        history=history,
        last_ssim_db=last_ssim_db,
    )


def in_repo_models():
    hmm = DiscreteThroughputHmm(n_states=3, seed=0)
    robust = HarmonicMeanPredictor(robust=True)
    # One observed miss, so RobustMPC discounts its estimate.
    robust.predict(clip_context(5.0, 4), 0, np.array([1e6]))
    robust.observe(record(4, 3e5))
    return {
        "mpc_hm": HarmonicMeanPredictor(),
        "robust_mpc_hm": robust,
        "fugu": TransmissionTimePredictor(TtpConfig(), seed=3),
        "fugu_point": TransmissionTimePredictor(
            TtpConfig(point_estimate=True), seed=3
        ),
        "fugu_throughput": TransmissionTimePredictor(
            TtpConfig(predict_throughput=True), seed=3
        ),
        "cs2p": Cs2pPredictor(hmm),
    }


EXPECTED_OUTCOMES = {
    "mpc_hm": 1,
    "robust_mpc_hm": 1,
    "fugu": N_TIME_BINS,
    "fugu_point": 1,
    "fugu_throughput": N_TIME_BINS,
    "cs2p": 3,
}


class TestInRepoModels:
    @pytest.mark.parametrize("name", sorted(in_repo_models()))
    @pytest.mark.parametrize("buffer_s", [0.0, 0.25, 0.75, 6, 6.1, 40.0])
    @pytest.mark.parametrize("n_history", [0, 3, 40])
    def test_scores_byte_equal(self, name, buffer_s, n_history):
        model = in_repo_models()[name]
        context = clip_context(buffer_s, n_history)
        assert_exact(ValueIterationController(), context, model)

    @pytest.mark.parametrize("name", sorted(EXPECTED_OUTCOMES))
    def test_outcome_count_fixed_across_steps(self, name):
        # The stacked pass needs one outcome count per plan; no in-repo
        # model varies it between steps.
        model = in_repo_models()[name]
        context = clip_context(5.0, 12)
        for step in range(5):
            sizes = context.lookahead[step].size_array
            dist = model.predict(context, step, sizes)
            assert dist.times.shape == (len(sizes), EXPECTED_OUTCOMES[name])


class TestShapeContract:
    def test_different_rung_counts_rejected(self):
        menus = [
            make_menu(0, [1e5, 1e6], [8.0, 16.0], 2.0),
            make_menu(1, [1e5, 5e5, 1e6], [8.0, 12.0, 16.0], 2.0),
        ]
        tables = [
            (np.ones((2, 1)), np.ones((2, 1))),
            (np.ones((3, 1)), np.ones((3, 1))),
        ]
        context = AbrContext(lookahead=menus, buffer_s=4.0, tcp_info=info())
        with pytest.raises(ValueError, match="rung count"):
            ValueIterationController(horizon=2).plan(
                context, TabularModel(tables)
            )
        # A horizon that stops before the odd menu plans normally.
        assert ValueIterationController(horizon=1).plan(
            context, TabularModel(tables)
        ) in (0, 1)

    def test_outcome_count_change_rejected(self):
        menus = [
            make_menu(i, [1e5, 1e6], [8.0, 16.0], 2.0) for i in range(3)
        ]
        tables = [
            (np.ones((2, 2)), np.full((2, 2), 0.5)),
            (np.ones((2, 1)), np.ones((2, 1))),
            (np.ones((2, 2)), np.full((2, 2), 0.5)),
        ]
        context = AbrContext(lookahead=menus, buffer_s=4.0, tcp_info=info())
        with pytest.raises(ValueError, match="outcome count"):
            ValueIterationController(horizon=3).plan(
                context, TabularModel(tables)
            )

    def test_wrong_version_count_rejected(self):
        menus = [make_menu(0, [1e5, 1e6], [8.0, 16.0], 2.0)]
        tables = [(np.ones((3, 1)), np.ones((3, 1)))]
        context = AbrContext(lookahead=menus, buffer_s=4.0, tcp_info=info())
        with pytest.raises(ValueError, match="wrong number of versions"):
            ValueIterationController(horizon=1).plan(
                context, TabularModel(tables)
            )
