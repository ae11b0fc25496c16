"""Windowed reads of a session's chunk history.

The throughput predictors read only the last ``window`` records of the
history. Each must see exactly those records, oldest first, whether the
history is a list or a tuple and whether the window is shorter than, equal
to or longer than the history, so every sum matches the one over the
explicit window to the bit.
"""

import numpy as np
import pytest

from repro.abr.base import AbrContext, ChunkRecord, harmonic_mean_throughput
from repro.abr.cs2p import Cs2pPredictor, DiscreteThroughputHmm
from repro.abr.oboe import OboeConfigMap, OboeRobustMpc
from repro.core.features import HISTORY_LEN, history_features
from repro.media.encoder import encode_clip
from repro.media.source import DEFAULT_CHANNELS
from repro.net.tcp import TcpInfo

HISTORY = 8


def info():
    return TcpInfo(cwnd=10, in_flight=0, min_rtt=0.05, rtt=0.05, delivery_rate=0)


def records(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ChunkRecord(
            chunk_index=i, rung=5, size_bytes=float(rng.uniform(1e5, 2e6)),
            ssim_db=15.0, transmission_time=float(rng.uniform(0.05, 6.0)),
            info_at_send=info(), send_time=2.0 * i,
        )
        for i in range(n)
    ]


def explicit_window(history, window):
    """The last ``window`` records, oldest first, as a fresh list."""
    return list(history)[-window:]


WINDOWS = [3, HISTORY, HISTORY + 5]
"""Shorter than, equal to and longer than the history."""

CONTAINERS = [list, tuple]


def context(history):
    return AbrContext(
        lookahead=encode_clip(DEFAULT_CHANNELS[0], 2, seed=0),
        buffer_s=6.0,
        tcp_info=info(),
        history=history,
    )


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("container", CONTAINERS)
class TestWindowedHistory:
    def test_harmonic_mean(self, window, container):
        history = container(records(HISTORY))
        recent = explicit_window(history, window)
        expected = len(recent) / sum(
            1.0 / r.observed_throughput_bps for r in recent
        )
        assert harmonic_mean_throughput(history, window) == expected

    def test_cs2p_predict(self, window, container):
        hmm = DiscreteThroughputHmm(n_states=2, seed=0)
        history = container(records(HISTORY, seed=1))
        sizes = np.array([1e5, 1e6])
        predictor = Cs2pPredictor(hmm, window=window)
        got = predictor.predict(context(history), 1, sizes)
        expected = predictor.predict(
            context(explicit_window(history, window)), 1, sizes
        )
        assert got.times.tobytes() == expected.times.tobytes()
        assert got.probs.tobytes() == expected.probs.tobytes()

    def test_oboe_state(self, window, container):
        # Distinct conservatism per state makes the chosen state visible.
        table = {
            (mean, cv): 1.0 + mean + 0.5 * cv
            for mean in range(4)
            for cv in range(2)
        }
        # Throughput doubles chunk to chunk, so the oldest and the newest
        # records of the history sit in different states.
        history = container(
            ChunkRecord(
                chunk_index=i, rung=5, size_bytes=5e5, ssim_db=15.0,
                transmission_time=5e5 * 8.0 / (4e5 * 2.0**i),
                info_at_send=info(), send_time=2.0 * i,
            )
            for i in range(HISTORY)
        )
        seen = []
        for hist in (history, explicit_window(history, window)):
            scheme = OboeRobustMpc(OboeConfigMap(table=table), window=window)
            scheme.choose(context(hist))
            seen.append(scheme.current_conservatism)
        assert seen[0] == seen[1]


@pytest.mark.parametrize("n", [3, HISTORY_LEN, HISTORY_LEN + 5])
@pytest.mark.parametrize("container", CONTAINERS)
def test_ttp_history_features(n, container):
    history = container(records(n, seed=3))
    expected = history_features(explicit_window(history, HISTORY_LEN))
    assert history_features(history).tobytes() == expected.tobytes()
