"""Exact differential test of the vectorised TTP training-set builder.

The oracle below is a frozen copy of the per-row builder that
:func:`repro.core.train.build_ttp_datasets` replaced: for every chunk of
every stream it rebuilds the history, ``tcp_info`` and size features
through Fugu's inference path (``predictor.masked_features``) and appends
one row per horizon step.  The vectorised builder keeps every elementwise
IEEE operation, so its features, targets and weights must equal the
oracle's to the byte — which is also what keeps the training features
identical to the ones Fugu sees when it plans.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.train as train_module
from repro.abr.base import ChunkRecord
from repro.core.features import FEATURE_DIM, stream_feature_rows
from repro.core.train import DailyRetrainer, build_ttp_datasets
from repro.core.ttp import TransmissionTimePredictor, TtpConfig
from repro.experiment.presets import smoke_trial_config
from repro.fleet import (
    FleetConfig,
    RetrainConfig,
    WorkloadConfig,
    run_fleet_retrain,
)
from repro.learn.training import Dataset
from repro.net.tcp import TcpInfo
from repro.streaming.session import StreamResult

from ..fleet.conftest import classical_specs


def reference_datasets(streams, predictor, sample_weight=1.0,
                       allow_empty=False):
    """The per-row builder, frozen."""
    horizon = predictor.config.horizon
    features = [[] for _ in range(horizon)]
    labels = [[] for _ in range(horizon)]
    for stream in streams:
        records = stream.records
        for i in range(len(records)):
            history = records[:i]
            info = records[i].info_at_send
            max_k = min(horizon, len(records) - i)
            if max_k <= 0:
                continue
            sizes = np.array(
                [records[i + k].size_bytes for k in range(max_k)]
            )
            rows = predictor.masked_features(history, info, sizes)
            for k in range(max_k):
                features[k].append(rows[k])
                labels[k].append(predictor.label_for(records[i + k]))
    datasets = []
    for k in range(horizon):
        if not features[k]:
            if allow_empty:
                datasets.append(
                    Dataset(
                        np.zeros((0, FEATURE_DIM)),
                        np.zeros(0, dtype=int),
                        np.zeros(0),
                    )
                )
                continue
            raise ValueError(
                f"no training examples for horizon step {k}; need longer streams"
            )
        x = np.vstack(features[k])
        y = np.asarray(labels[k], dtype=int)
        w = np.full(len(y), float(sample_weight))
        datasets.append(Dataset(x, y, w))
    return datasets


def assert_same(actual: List[Dataset], expected: List[Dataset]) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        for a, b in (
            (got.features, want.features),
            (got.targets, want.targets),
            (got.weights, want.weights),
        ):
            assert a.dtype == b.dtype
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def outcome(build, *args, **kwargs):
    """Datasets, or the error message when the builder refuses."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


# Magnitudes the deployment produces (and a few it should survive): tiny,
# exact zeros, integers, heavy tails past the last time bin.
times_st = st.one_of(
    st.sampled_from([0.0, 0.25, 0.75, 9.75, 1e-7, 60.0]),
    st.floats(0.0, 30.0, allow_nan=False),
)
sizes_st = st.one_of(
    st.integers(1, 5_000_000),
    st.floats(1e-3, 1e7, allow_nan=False),
)
positive_st = st.one_of(
    st.integers(0, 500),
    st.floats(0.0, 1e9, allow_nan=False),
)


@st.composite
def records_st(draw, max_len=20):
    n = draw(st.integers(0, max_len))
    return [
        ChunkRecord(
            chunk_index=i,
            rung=-1,
            size_bytes=draw(sizes_st),
            ssim_db=15.0,
            transmission_time=draw(times_st),
            info_at_send=TcpInfo(
                cwnd=draw(positive_st),
                in_flight=draw(positive_st),
                min_rtt=draw(st.floats(0.0, 2.0, allow_nan=False)),
                rtt=draw(st.floats(0.0, 5.0, allow_nan=False)),
                delivery_rate=draw(positive_st),
            ),
            send_time=2.0 * i,
        )
        for i in range(n)
    ]


ablation_st = st.frozensets(
    st.sampled_from(
        ["tcp", "cwnd", "in_flight", "min_rtt", "rtt", "delivery_rate",
         "history_sizes", "history_times"]
    ),
    max_size=3,
)


@st.composite
def predictor_st(draw):
    config = TtpConfig(
        horizon=draw(st.integers(1, 5)),
        hidden=(2,),
        point_estimate=draw(st.booleans()),
        predict_throughput=draw(st.booleans()),
        ablated_features=draw(ablation_st),
    )
    return TransmissionTimePredictor(config, seed=0)


class TestBuildTtpDatasetsExact:
    @settings(max_examples=150, deadline=None)
    @given(
        predictor=predictor_st(),
        streams=st.lists(records_st(), max_size=4),
        allow_empty=st.booleans(),
        sample_weight=st.sampled_from([1.0, 0.9, 0.9**13, 0.25]),
    )
    def test_matches_per_row_builder(
        self, predictor, streams, allow_empty, sample_weight
    ):
        results = [
            StreamResult(i, "x", records=records)
            for i, records in enumerate(streams)
        ]
        args = (results, predictor)
        kwargs = dict(sample_weight=sample_weight, allow_empty=allow_empty)
        got = outcome(build_ttp_datasets, *args, **kwargs)
        want = outcome(reference_datasets, *args, **kwargs)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same(got, want)

    @settings(max_examples=50, deadline=None)
    @given(records=records_st(max_len=12).filter(bool))
    def test_context_rows_match_inference_features(self, records):
        predictor = TransmissionTimePredictor(TtpConfig(horizon=1), seed=0)
        context, sizes = stream_feature_rows(records)
        for i, record in enumerate(records):
            row = predictor.masked_features(
                records[:i], record.info_at_send,
                np.array([record.size_bytes]),
            )[0]
            assert row[:-1].tobytes() == context[i].tobytes()
            assert row[-1:].tobytes() == sizes[i : i + 1].tobytes()

    @pytest.mark.parametrize("bad", [0, 0.0, -1.0, -5e5])
    @pytest.mark.parametrize("position", [0, 3, 9])
    def test_non_positive_size_refused(self, bad, position):
        records = [
            ChunkRecord(
                chunk_index=i, rung=0,
                size_bytes=bad if i == position else 4e5,
                ssim_db=15.0, transmission_time=1.0,
                info_at_send=TcpInfo(10, 2, 0.04, 0.05, 5e6),
                send_time=2.0 * i,
            )
            for i in range(10)
        ]
        predictor = TransmissionTimePredictor(TtpConfig(horizon=3), seed=0)
        stream = [StreamResult(0, "x", records=records)]
        for build in (build_ttp_datasets, reference_datasets):
            with pytest.raises(
                ValueError, match="proposed sizes must be positive"
            ):
                build(stream, predictor)

    def test_empty_stream_list(self):
        predictor = TransmissionTimePredictor(TtpConfig(horizon=2), seed=0)
        assert_same(
            build_ttp_datasets([], predictor, allow_empty=True),
            reference_datasets([], predictor, allow_empty=True),
        )
        with pytest.raises(ValueError, match="no training examples"):
            build_ttp_datasets([], predictor)


class TestDayBoundaryBuildsOnce:
    def test_each_window_day_built_once_per_boundary(
        self, tmp_path, monkeypatch
    ):
        """One ``close_day`` builds the window once: every retained day
        goes through ``build_ttp_datasets`` exactly once, and training and
        the registry evaluation share the result."""
        builds: List[int] = []
        windows: List[int] = []
        build = train_module.build_ttp_datasets
        window = DailyRetrainer.window_datasets

        def counting_build(streams, *args, **kwargs):
            builds.append(len(streams))
            return build(streams, *args, **kwargs)

        def counting_window(self):
            windows.append(len(self.window_state()))
            return window(self)

        monkeypatch.setattr(
            train_module, "build_ttp_datasets", counting_build
        )
        monkeypatch.setattr(DailyRetrainer, "window_datasets", counting_window)
        result = run_fleet_retrain(
            classical_specs(),
            FleetConfig(
                workload=WorkloadConfig(
                    days=1.15, sessions_per_hour=3.0, seed=5
                ),
                trial=smoke_trial_config(seed=11),
                chunk_sessions=8,
            ),
            RetrainConfig(
                ttp=TtpConfig(horizon=2), window_days=3,
                recency_decay=0.9, epochs_per_day=1, seed=0,
            ),
            archive_dir=tmp_path / "archive",
            registry_dir=tmp_path / "registry",
            workers=1,
        )
        assert result.completed
        # Two day boundaries; windows of one and then two days.
        assert windows == [1, 2]
        assert len(builds) == sum(windows)
        assert all(n > 0 for n in builds)
