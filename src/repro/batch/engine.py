"""Lockstep batch-session engine.

Advances many sessions at once: the per-RTT-round TCP/BBR arithmetic — the
hot loop of the scalar path — runs vectorized over every in-flight session
(struct-of-arrays state mirroring :class:`repro.net.tcp.TcpConnection` and
:class:`repro.net.cc.bbr.BbrLike`), while the cold per-chunk glue (buffer
bookkeeping, ABR decisions, viewer hooks, stream/session transitions) runs
as scalar Python mirroring ``simulate_stream``/``run_session`` expression
for expression.  Every arithmetic operation matches the scalar path's IEEE
evaluation order, so the shards are bit-identical — the contract the
differential suite in ``tests/batch/`` enforces.

Random-draw equivalence:

* each lane owns its session/media generators, so lockstep interleaving
  across lanes never reorders any one generator's stream;
* the per-connection loss generator is *not* created: BBR ignores
  ``RoundSample.loss`` and the loss generator feeds nothing else, so
  skipping its draws is unobservable (CUBIC paths fall back to the scalar
  executor);
* link epochs and chunk menus are realized ahead in blocks — each
  generator feeds nothing but its own lazily-consumed sequence, so
  over-generation is invisible.

Straggler handling: when the arrival stream is exhausted and few lanes
remain in flight, the engine drains them with a scalar twin of the round
loop (the same arithmetic, one lane at a time) instead of paying per-ufunc
dispatch overhead on nearly-empty arrays.
"""

from __future__ import annotations

import gc

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs, sanitizer
from repro.abr.base import AbrAlgorithm, ChunkRecord
from repro.abr.bba import BBA
from repro.abr.bola import Bola
from repro.abr.rate_based import RateBased
from repro.experiment.consort import ConsortArm, ConsortFlow, classify_stream
from repro.experiment.harness import (
    SessionResult,
    SessionShard,
    TrialConfig,
    assign_expt_ids,
    media_seed,
    run_session,
)
from repro.experiment.schemes import SchemeSpec
from repro.media.menus import MenuBlockSource, stream_block_chunks
from repro.net.cc.base import DEFAULT_MSS, INITIAL_CWND_SEGMENTS
from repro.net.link import _LazyEpochLink
from repro.net.path import PathSampler
from repro.net.tcp import TcpInfo, _SRTT_GAIN
from repro.streaming.buffer import BUFFER_EPSILON_S, MAX_BUFFER_S
from repro.streaming.session import StreamResult

VECTORIZABLE_SCHEME_TYPES: Tuple[type, ...] = (BBA, Bola, RateBased)
"""ABR classes whose ``choose`` the kernel reproduces on menu arrays.
Exact types only: a subclass may override ``choose`` arbitrarily."""

_BW_FILTER_ROUNDS = 10
_FULL_PIPE_GROWTH = 1.25
_FULL_PIPE_ROUNDS = 3
_CWND_GAIN = 2.0
_MAX_CWND_BYTES = float(64 * 1024 * 1024)
_MAX_ROUNDS_PER_CHUNK = 100_000
_INITIAL_CWND = float(INITIAL_CWND_SEGMENTS * DEFAULT_MSS)
_CWND_FLOOR = 2.0 * DEFAULT_MSS

_EPOCH_PREFETCH = 32
"""Floor on link epochs realized beyond the queried index.  Realization is
additionally prefetched through the current stream's watch limit, which
right-sizes the batch (over-realization is unobservable but costs the
per-epoch draw; under-realization costs another Python round trip)."""

_SCALAR_DRAIN_MAX = 32
"""With no sessions left to refill lanes, at most this many in-flight
lanes are finished on the scalar twin instead of the vector step."""

_ROUNDS_PER_GATHER = 8
"""RTT rounds advanced per gather/scatter of the state block.  Lanes whose
transmission completes mid-batch are masked: their rows are reverted to the
pre-round values, freezing them bit-exactly until the driver collects them
at the end of the call.  Amortizes the per-ufunc fixed cost across rounds
without changing any lane's arithmetic."""

_FREE, _FLY = 0, 1

# Columns of the fused per-lane state block.  One (lanes, _N_COLS) float64
# array holds every per-lane connection/CC/transmission scalar, so the
# vector round performs a single row gather and a single row scatter
# instead of one fancy-index pass per field.  Integer- and boolean-valued
# fields (rounds, stale, ring cursors, the startup flag) live in float64
# columns; their values are small non-negative integers, which float64
# represents exactly, and the scalar twins round-trip them through
# ``int()``/``!= 0.0``.
_C_BASE_RTT = 0
_C_SRTT = 1
_C_MIN_RTT = 2
_C_DRATE = 3
_C_IN_FLIGHT = 4
_C_QUEUE = 5
_C_CWND = 6
_C_CC_MIN_RTT = 7
_C_BASELINE = 8
_C_REMAINING = 9
_C_ELAPSED = 10
_C_SEND_ABS = 11
_C_ROUNDS = 12
_C_EPOCH = 13
_C_IN_STARTUP = 14
_C_STALE = 15
_C_RING_POS = 16
_C_RING_COUNT = 17
_N_COLS = 18


def is_vectorizable_algorithm(algo: AbrAlgorithm) -> bool:
    """Whether the kernel can reproduce this ABR instance's decisions."""
    return type(algo) in VECTORIZABLE_SCHEME_TYPES


class _Lane:
    """Scalar per-session state for one lockstep lane.

    ``row`` is the lane's fused state row hoisted into a plain Python list
    (``tolist()`` round-trips float64 exactly).  Between a transmission's
    completion and the next ``_FLY`` park the list is authoritative and
    every scalar-glue read/write goes through it; ``_advance_to_send``
    scatters it back into the state block in one assignment when the lane
    re-enters the vector round."""

    __slots__ = (
        "idx", "state", "sid", "rng", "spec", "algo", "session", "consort",
        "arm", "n_streams", "stream_no", "link", "last_activity_end",
        "clock", "result", "menusrc", "has_hook", "level", "t", "limit",
        "playing", "start_time", "tputs", "duration", "on_complete",
        "row",
        "p_rung", "p_size", "p_ssim", "p_index", "p_send", "p_info",
    )

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.state = _FREE
        self.sid = -1
        self.rng: Optional[np.random.Generator] = None
        self.spec: Optional[SchemeSpec] = None
        self.algo: Optional[AbrAlgorithm] = None
        self.session: Optional[SessionResult] = None
        self.consort: Optional[ConsortFlow] = None
        self.arm: Optional[ConsortArm] = None
        self.n_streams = 0
        self.stream_no = 0
        self.link: Optional[_LazyEpochLink] = None
        self.last_activity_end = 0.0
        self.clock = 0.0
        self.result: Optional[StreamResult] = None
        self.menusrc: Optional[MenuBlockSource] = None
        self.has_hook = False
        self.level = 0.0
        self.t = 0.0
        self.limit = 0.0
        self.playing = False
        self.start_time = 0.0
        self.tputs: List[float] = []
        self.duration = 0.0
        self.row: List[float] = []
        self.on_complete: Optional[Callable[[ChunkRecord], None]] = None
        self.p_rung = 0
        self.p_size = 0.0
        self.p_ssim = 0.0
        self.p_index = 0
        self.p_send = 0.0
        self.p_info: Optional[TcpInfo] = None


class _BatchEngine:
    """Struct-of-arrays connection/CC state plus the lockstep driver."""

    def __init__(
        self,
        specs: Sequence[SchemeSpec],
        config: TrialConfig,
        expt_ids: Mapping[str, int],
        algorithms: Mapping[str, AbrAlgorithm],
        n_lanes: int,
    ) -> None:
        self.specs = list(specs)
        self.config = config
        self.expt_ids = dict(expt_ids)
        self.algorithms = dict(algorithms)
        b = n_lanes
        self.lanes = [_Lane(i) for i in range(b)]
        # Fused per-lane scalar state (see the _C_* column map); the
        # bandwidth-filter deque becomes a -inf-padded ring whose per-lane
        # max equals the deque max.
        self.state = np.zeros((b, _N_COLS))
        # Slot-major ring layout: slot k of every lane is contiguous, so
        # the vector round's two ring maxes reduce over _BW_FILTER_ROUNDS
        # contiguous row vectors instead of b strided 10-element rows.
        self.ring = np.full((_BW_FILTER_ROUNDS, b), -np.inf)
        # Link capacity bank: realized epochs, gathered per round.
        self.n_realized = np.zeros(b, dtype=np.int64)
        self.bank = np.zeros((b, 256))
        self.shards: Dict[int, SessionShard] = {}
        self._pending: Iterator[int] = iter(())
        self._pending_done = False

    # ------------------------------------------------------------------
    # Session / stream lifecycle (scalar glue)
    # ------------------------------------------------------------------
    def _fallback(self, sid: int) -> None:
        self.shards[sid] = run_session(
            self.specs, self.config, sid, self.expt_ids, self.algorithms
        )

    def _start_session(self, lane: _Lane, sid: int) -> bool:
        """Initialize a lane for ``sid``; False routes the session to the
        scalar path instead (the partial draws made here are discarded —
        ``run_session`` re-derives everything from ``(seed, session_id)``).
        """
        cfg = self.config
        # repro: allow-SEED003(bit-exact replay of the scalar scheme-assignment fold in harness.run_session)
        rng = np.random.default_rng((cfg.seed, sid))
        spec = self.specs[int(rng.integers(len(self.specs)))]
        algo = self.algorithms[spec.name]
        if not is_vectorizable_algorithm(algo):
            self._fallback(sid)
            return False
        path = PathSampler(
            # repro: allow-SEED001(bit-exact replay of the scalar path seed in harness.run_session)
            population=cfg.population, seed=cfg.seed * 1_000_003 + sid
        ).next_path()
        if path.cc_name != "bbr" or not isinstance(path.link, _LazyEpochLink):
            self._fallback(sid)
            return False
        lane.sid = sid
        lane.rng = rng
        lane.spec = spec
        lane.algo = algo
        lane.consort = ConsortFlow()
        lane.arm = lane.consort.arm(spec.name)
        lane.arm.sessions_assigned += 1
        lane.session = SessionResult(
            session_id=sid, scheme=spec.name, expt_id=self.expt_ids[spec.name]
        )
        lane.link = path.link
        lane.last_activity_end = 0.0
        lane.clock = 0.0
        i = lane.idx
        row = [0.0] * _N_COLS
        row[_C_BASE_RTT] = path.base_rtt
        row[_C_SRTT] = path.base_rtt
        row[_C_MIN_RTT] = path.base_rtt
        row[_C_CWND] = _INITIAL_CWND
        row[_C_CC_MIN_RTT] = float("inf")
        row[_C_EPOCH] = path.link.epoch
        row[_C_IN_STARTUP] = 1.0
        lane.row = row
        self.ring[:, i] = -np.inf
        self.n_realized[i] = 0
        n_streams = 1
        while (
            n_streams < cfg.max_streams_per_session
            and rng.random() < cfg.extra_stream_prob
        ):
            n_streams += 1
        lane.n_streams = n_streams
        lane.stream_no = 0
        self._begin_stream(lane)
        return True

    def _begin_stream(self, lane: _Lane) -> None:
        cfg = self.config
        assert lane.rng is not None and lane.spec is not None
        assert lane.algo is not None
        kind = cfg.viewer.sample_stream_kind(lane.rng)
        watch = cfg.viewer.sample_watch_time(kind, lane.rng)
        channel = cfg.channels[int(lane.rng.integers(len(cfg.channels)))]
        media_rng = np.random.default_rng(
            media_seed(cfg.seed, lane.sid, lane.stream_no)
        )
        lane.menusrc = MenuBlockSource(
            channel,
            media_rng,
            first_block_chunks=stream_block_chunks(watch),
        )
        lane.has_hook = kind == "view"
        lane.algo.begin_stream()
        # Skip the per-chunk callback when the scheme inherits the base
        # no-op (true for every vectorizable scheme today).
        if type(lane.algo).on_chunk_complete is AbrAlgorithm.on_chunk_complete:
            lane.on_complete = None
        else:
            lane.on_complete = lane.algo.on_chunk_complete
        lane.result = StreamResult(
            stream_id=lane.sid * cfg.max_streams_per_session + lane.stream_no,
            scheme_name=lane.spec.name,
        )
        lane.duration = lane.menusrc.chunk_duration
        lane.level = 0.0
        lane.t = 0.0
        lane.limit = watch
        lane.playing = False
        lane.start_time = lane.clock
        lane.tputs = []

    def _hook_extra(self, lane: _Lane, t_val: float) -> float:
        """Mirror of ViewerModel.make_extension_hook's closure."""
        viewer = self.config.viewer
        assert lane.rng is not None and lane.result is not None
        if t_val < viewer.tail_threshold_s or t_val >= viewer.max_session_s:
            return 0.0
        if lane.rng.random() < viewer.continue_probability(lane.result):
            return min(viewer.tail_block_s, viewer.max_session_s - t_val)
        return 0.0

    def _drain(self, lane: _Lane, play_time_s: float) -> float:
        """Mirror of PlaybackBuffer.drain: returns the stall shortfall."""
        if play_time_s <= lane.level:
            lane.level -= play_time_s
            return 0.0
        shortfall = play_time_s - lane.level
        lane.level = 0.0
        return shortfall

    def _choose(self, lane: _Lane, ms: MenuBlockSource, row: int) -> int:
        """The lane's ABR decision on a menu row (scalar-equivalent).

        Rate rows (``(size_bytes * 8.0) / duration``, the scalar
        ``EncodedChunk.bitrate``) and their min/max are precomputed per
        block by :class:`MenuBlockSource`.
        """
        algo = lane.algo
        if isinstance(algo, BBA):
            # BBA.choose verbatim on the menu row, rate_limit inlined.
            rates = ms.rates_lists[row]
            buffer_s = lane.level
            if buffer_s <= algo.reservoir_s:
                limit = ms.rates_min[row]
            elif buffer_s >= algo.upper_reservoir_s:
                limit = ms.rates_max[row]
            else:
                fraction = (buffer_s - algo.reservoir_s) / (
                    algo.upper_reservoir_s - algo.reservoir_s
                )
                min_rate = ms.rates_min[row]
                limit = min_rate + fraction * (ms.rates_max[row] - min_rate)
            limit += 1e-9
            qualities = ms.ssims_lists[row]
            best = 0
            best_ssim = float("-inf")
            for k, rate in enumerate(rates):
                if rate <= limit and qualities[k] > best_ssim:
                    best = k
                    best_ssim = qualities[k]
            return best
        if isinstance(algo, RateBased):
            recent = lane.tputs[-algo.window:]
            if recent:
                estimate = len(recent) / sum(1.0 / r for r in recent)
            else:
                estimate = algo.startup_throughput_bps
            budget = estimate * algo.safety_factor
            choice = 0
            # RateBased compares size_bits / duration — the same rate row.
            for k, rate in enumerate(ms.rates_lists[row]):
                if rate <= budget:
                    choice = k
            return choice
        if isinstance(algo, Bola):
            sizes, ssims = ms.row_arrays(row)
            duration = lane.duration
            q_chunks = lane.level / duration
            q_max = algo.max_buffer_s / duration
            utilities = ssims - ssims[0]
            gamma_p = algo.target_buffer_fraction * q_max
            utility_span = max(float(utilities[-1]), 1e-9)
            v = (q_max - 1.0) / (utility_span + gamma_p)
            scores = (v * (utilities + gamma_p) - q_chunks) / sizes
            if float(scores.max()) <= 0.0:
                return len(sizes) - 1
            return int(np.argmax(scores))
        raise RuntimeError(
            f"non-vectorizable algorithm reached the kernel: {algo!r}"
        )

    def _on_idle(self, lane: _Lane, idle: float) -> None:
        """Mirror of TcpConnection._handle_idle + BbrLike.on_idle."""
        row = lane.row
        rtt = row[_C_SRTT]
        rto = max(2.0 * rtt, 0.2)
        if idle >= rto:
            decay = 0.5 ** (idle / rto)
            row[_C_CWND] = max(_INITIAL_CWND, row[_C_CWND] * decay)
        if idle >= 4.0 * rto:
            row[_C_IN_STARTUP] = 1.0
            if row[_C_RING_COUNT] > 0.0:
                ring = self.ring[:, lane.idx]
                ring_l = ring.tolist()
                # max(list) == ndarray.max(): both pure comparisons.
                row[_C_BASELINE] = max(ring_l) * 0.5
                pos = int(row[_C_RING_POS])
                last = ring_l[(pos - 1) % _BW_FILTER_ROUNDS]
                ring.fill(-np.inf)
                ring[0] = last * 0.7
                row[_C_RING_POS] = 1.0
                row[_C_RING_COUNT] = 1.0
            else:
                row[_C_BASELINE] = 0.0
            row[_C_STALE] = 0.0
        factor = float(np.exp(-idle / max(rtt, 1e-3)))
        in_flight = row[_C_IN_FLIGHT] * factor
        if in_flight < DEFAULT_MSS:
            in_flight = 0.0
        row[_C_IN_FLIGHT] = in_flight
        row[_C_QUEUE] = row[_C_QUEUE] * factor

    def _advance_to_send(self, lane: _Lane) -> bool:
        """Run the simulate_stream loop head until a transmission starts
        (True) or the stream ends (False).

        ``t``/``level``/``limit`` shadow the lane fields in locals across
        the pause loop (synced back on every exit); the expressions match
        the scalar loop head term for term.
        """
        result = lane.result
        ms = lane.menusrc
        assert result is not None and ms is not None
        t = lane.t
        limit = lane.limit
        level = lane.level
        duration = lane.duration
        while True:
            if t >= limit:
                if lane.has_hook:
                    extra = self._hook_extra(lane, t)
                    if extra > 0:
                        limit = t + extra
                        lane.limit = limit
                        continue
                lane.t = t
                lane.level = level
                return False
            # The live menu stream never exhausts (no bounded-clip break).
            if level + duration > MAX_BUFFER_S + BUFFER_EPSILON_S:
                # Server pauses while the buffer is full (time_until_room);
                # the drain mirror discards the (impossible here) shortfall
                # exactly as PlaybackBuffer.drain would.
                wait = min(level + duration - MAX_BUFFER_S, max(limit - t, 0.0))
                if wait <= 0:
                    t = limit
                    continue
                if wait <= level:
                    level -= wait
                else:
                    level = 0.0
                result.play_time += wait
                t += wait
                continue
            break
        lane.t = t
        lane.level = level
        chunk_index, row = ms.next_row()
        rung = self._choose(lane, ms, row)
        send_at = lane.start_time + t
        idle = send_at - lane.last_activity_end
        if idle > 0:
            self._on_idle(lane, idle)
        lane.p_rung = rung
        # Block lists hold the same float64 values as the ndarray rows.
        lane.p_size = ms.sizes_lists[row][rung]
        lane.p_ssim = ms.ssims_lists[row][rung]
        lane.p_index = chunk_index
        lane.p_send = send_at
        state_row = lane.row
        lane.p_info = TcpInfo(
            cwnd=state_row[_C_CWND] / DEFAULT_MSS,
            in_flight=state_row[_C_IN_FLIGHT] / DEFAULT_MSS,
            min_rtt=state_row[_C_MIN_RTT],
            rtt=state_row[_C_SRTT],
            delivery_rate=state_row[_C_DRATE],
        )
        state_row[_C_REMAINING] = lane.p_size
        state_row[_C_ELAPSED] = 0.0
        state_row[_C_SEND_ABS] = send_at
        state_row[_C_ROUNDS] = 0.0
        # One scatter re-arms the state block for the vector round.
        self.state[lane.idx] = state_row
        lane.state = _FLY
        return True

    def _after_transmission(self, lane: _Lane) -> bool:
        """Post-transmit glue mirroring simulate_stream; True while the
        stream continues."""
        result = lane.result
        assert result is not None and lane.p_info is not None
        assert lane.algo is not None
        ttime = lane.row[_C_ELAPSED]
        t = lane.t
        t_end = t + ttime
        lane.last_activity_end = lane.p_send + ttime
        if lane.has_hook and t_end >= lane.limit:
            extra = self._hook_extra(lane, t_end)
            if extra > 0:
                lane.limit = t_end + extra
        if lane.playing:
            # PlaybackBuffer.drain, inlined (shortfall is the stall).
            level = lane.level
            if ttime <= level:
                lane.level = level - ttime
                stall = 0.0
            else:
                stall = ttime - level
                lane.level = 0.0
            play = ttime - stall
            overshoot = max(t_end - lane.limit, 0.0)
            clipped_stall = min(stall, overshoot)
            stall -= clipped_stall
            play -= min(overshoot - clipped_stall, play)
            result.play_time += play
            if stall > 0:
                result.stall_time += stall
        lane.t = t_end
        if t_end >= lane.limit:
            if not lane.playing:
                result.never_began = True
            lane.t = lane.limit
            return False
        lane.level += lane.duration
        if lane.level > MAX_BUFFER_S + BUFFER_EPSILON_S:
            raise RuntimeError(
                "buffer overflow: server must pause before exceeding the cap"
            )
        if not lane.playing:
            lane.playing = True
            result.startup_delay = lane.t
        record = ChunkRecord(
            chunk_index=lane.p_index,
            rung=lane.p_rung,
            size_bytes=lane.p_size,
            ssim_db=lane.p_ssim,
            transmission_time=ttime,
            info_at_send=lane.p_info,
            send_time=lane.p_send,
        )
        result.records.append(record)
        if lane.on_complete is not None:
            lane.on_complete(record)
        # record.observed_throughput_bps, inlined.
        lane.tputs.append(lane.p_size * 8.0 / max(ttime, 1e-9))
        return True

    def _end_stream(self, lane: _Lane) -> bool:
        """Stream tail + session bookkeeping; True if another stream of
        this session begins."""
        cfg = self.config
        result = lane.result
        assert (
            result is not None and lane.rng is not None
            and lane.session is not None and lane.arm is not None
            and lane.spec is not None
        )
        if lane.playing and lane.t < lane.limit:
            tail_play = min(lane.level, lane.limit - lane.t)
            self._drain(lane, tail_play)
            result.play_time += tail_play
            lane.t += tail_play
        result.total_time = lane.t
        result.never_began = not lane.playing
        result.scheme_name = lane.spec.name
        lane.clock += result.total_time + float(lane.rng.uniform(0.1, 2.0))
        lane.clock = max(lane.clock, lane.last_activity_end + 1e-6)
        lane.session.streams.append(result)
        arm = lane.arm
        arm.streams_assigned += 1
        category = classify_stream(result)
        if (
            category == "considered"
            and lane.rng.random() < cfg.slow_decoder_prob
        ):
            result.excluded = True
            category = "slow_video_decoder"
        if category == "did_not_begin":
            arm.did_not_begin += 1
        elif category == "watch_time_under_4s":
            arm.watch_time_under_4s += 1
        elif category == "slow_video_decoder":
            arm.slow_video_decoder += 1
        else:
            arm.considered += 1
            arm.considered_watch_time_s += result.watch_time
            if lane.rng.random() < cfg.loss_of_contact_prob:
                arm.truncated_loss_of_contact += 1
        lane.stream_no += 1
        if lane.stream_no < lane.n_streams:
            self._begin_stream(lane)
            return True
        assert lane.consort is not None
        self.shards[lane.sid] = SessionShard(
            session=lane.session,
            consort=lane.consort,
            telemetry=None,
            obs=None,
        )
        lane.state = _FREE
        return False

    def _fill(self, lane: _Lane) -> bool:
        """Start the next pending session on a free lane (running scalar
        fallbacks inline); False once the arrival stream is exhausted."""
        while True:
            sid = next(self._pending, None)
            if sid is None:
                self._pending_done = True
                return False
            if self._start_session(lane, sid):
                return True

    def _drive(self, lane: _Lane) -> None:
        """Advance a lane's scalar glue until it is in flight or parked."""
        while True:
            if self._advance_to_send(lane):
                return
            if self._end_stream(lane):
                continue
            if not self._fill(lane):
                return

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def _realize_capacity(self, lane: _Lane, index: int) -> None:
        link = lane.link
        assert link is not None
        i = lane.idx
        # Prefetch through the stream's watch limit (plus slack for the
        # final chunk's overrun) so most streams realize in one batch.
        horizon = int((lane.start_time + lane.limit) / link.epoch) + 2
        link.realize_through(max(index + _EPOCH_PREFETCH, horizon))
        realized = link._realized
        new_len = len(realized)
        if new_len > self.bank.shape[1]:
            width = self.bank.shape[1]
            while width < new_len:
                width *= 2
            grown = np.zeros((self.bank.shape[0], width))
            grown[:, : self.bank.shape[1]] = self.bank
            self.bank = grown
        old = int(self.n_realized[i])
        self.bank[i, old:new_len] = realized[old:new_len]
        self.n_realized[i] = new_len

    def _vector_round(self, fly: List[_Lane], a: np.ndarray) -> np.ndarray:
        """Up to ``_ROUNDS_PER_GATHER`` lockstep RTT rounds over every
        in-flight lane.

        ``a`` holds ``lane.idx`` for each lane in ``fly`` (same order);
        returns the *positions* in ``fly`` whose transmission completed.
        The fused state block is gathered once into ``S`` (a row copy) and
        scattered back once at the end; every intermediate update writes
        into ``S``'s columns.  After the first round a lane whose
        transmission has completed stays ``inactive``: its row is reverted
        wholesale to the pre-round copy each subsequent round (and its ring
        is never touched), so extra rounds are arithmetic no-ops for it.
        """
        S = self.state[a]
        ring_cols = self.ring[:, a]
        n_realized = self.n_realized
        active: Optional[np.ndarray] = None
        frozen: Optional[np.ndarray] = None
        saved: Optional[np.ndarray] = None
        for _ in range(_ROUNDS_PER_GATHER):
            if active is not None:
                # Rows frozen at round start keep this round's writes only
                # if they are active; save the frozen rows and restore them
                # after the column writes (a lane completing *this* round
                # keeps its writes — the completing round is real).
                frozen = np.nonzero(~active)[0]
                saved = S[frozen] if frozen.size else None
            el = S[:, _C_ELAPSED]
            t_q = S[:, _C_SEND_ABS] + el
            ep = S[:, _C_EPOCH]
            # epoch_index_array's boundary correction, per-lane epochs.
            idx = (t_q / ep).astype(np.int64)
            idx = np.where((idx + 1) * ep <= t_q, idx + 1, idx)
            idx = np.where((idx > 0) & (idx * ep > t_q), idx - 1, idx)
            if frozen is not None and frozen.size:
                # A frozen lane's stale elapsed may point past its realized
                # horizon; pin it to epoch 0 (its row is restored below,
                # the gathered value is never used).
                idx[frozen] = 0
            need = idx >= n_realized[a]
            if bool(need.any()):
                # Realization touches only bank/n_realized, never the
                # state block, so the gathered copy S stays authoritative.
                for k in np.nonzero(need)[0]:
                    self._realize_capacity(fly[int(k)], int(idx[k]))
            cap_Bps = self.bank[a, idx] / 8.0
            rem = S[:, _C_REMAINING]
            cw = S[:, _C_CWND]
            rtt0 = S[:, _C_BASE_RTT]
            window = np.minimum(cw, rem)
            app_limited = rem < cw
            drain_time = window / cap_Bps
            queue_delay = S[:, _C_QUEUE] / cap_Bps
            rtt_sample = rtt0 + queue_delay
            link_limited = drain_time > rtt_sample
            duration = np.maximum(rtt_sample, drain_time)
            S[:, _C_QUEUE] = np.where(
                link_limited, np.maximum(window - cap_Bps * rtt0, 0.0), 0.0
            )
            # The stochastic loss draw is skipped: BbrLike ignores
            # sample.loss and the loss generator feeds nothing else (see
            # module docstring).
            delivery_rate = window * 8.0 / duration
            # --- BbrLike.on_round, vectorized -------------------------
            count = S[:, _C_RING_COUNT]
            bw_pre = np.where(count > 0, ring_cols.max(axis=0), 0.0)
            append = (~app_limited) | (delivery_rate > bw_pre)
            if active is not None:
                append &= active
            sel = np.nonzero(append)[0]
            pos_sel = S[sel, _C_RING_POS].astype(np.int64)
            dr_sel = delivery_rate[sel]
            # Mirror the append into both the gathered ring copy (for the
            # post-append max below) and the ring truth.
            ring_cols[pos_sel, sel] = dr_sel
            self.ring[pos_sel, a[sel]] = dr_sel
            S[sel, _C_RING_POS] = (pos_sel + 1) % _BW_FILTER_ROUNDS
            count[sel] = np.minimum(
                count[sel] + 1.0, float(_BW_FILTER_ROUNDS)
            )
            mrtt = np.minimum(S[:, _C_CC_MIN_RTT], rtt_sample)
            S[:, _C_CC_MIN_RTT] = mrtt
            bw = np.where(count > 0, ring_cols.max(axis=0), 0.0)
            in_st = S[:, _C_IN_STARTUP] != 0.0
            base = S[:, _C_BASELINE]
            grew = bw > base * _FULL_PIPE_GROWTH
            m_grow = in_st & grew
            S[:, _C_BASELINE] = np.where(m_grow, bw, base)
            stale = np.where(m_grow, 0.0, S[:, _C_STALE])
            m_stale = in_st & ~grew & ~app_limited
            stale = np.where(m_stale, stale + 1.0, stale)
            exited = m_stale & (stale >= _FULL_PIPE_ROUNDS)
            in_st_new = in_st & ~exited
            # Startup doubling uses the *pre-update* startup flag (the
            # scalar code doubles inside the original `if in_startup:`
            # branch, including on the exit round); the BDP pin uses the
            # post-update flag and so also runs on the exit round.
            cw_new = np.where(in_st & ~app_limited, cw * 2.0, cw)
            pin = (~in_st_new) & (bw > 0) & (mrtt < np.inf)
            cw_new = np.where(pin, _CWND_GAIN * ((bw / 8.0) * mrtt), cw_new)
            cw_new = np.minimum(np.maximum(cw_new, _CWND_FLOOR), _MAX_CWND_BYTES)
            S[:, _C_STALE] = stale
            S[:, _C_IN_STARTUP] = in_st_new
            S[:, _C_CWND] = cw_new
            # --- connection updates -----------------------------------
            S[:, _C_SRTT] = (
                (1.0 - _SRTT_GAIN) * S[:, _C_SRTT] + _SRTT_GAIN * rtt_sample
            )
            S[:, _C_MIN_RTT] = np.minimum(S[:, _C_MIN_RTT], rtt_sample)
            dr_old = S[:, _C_DRATE]
            S[:, _C_DRATE] = np.where(
                (~app_limited) | (delivery_rate > dr_old),
                delivery_rate,
                dr_old,
            )
            S[:, _C_IN_FLIGHT] = window
            S[:, _C_REMAINING] = rem - window
            S[:, _C_ELAPSED] = el + duration
            S[:, _C_ROUNDS] = S[:, _C_ROUNDS] + 1.0
            if frozen is not None and frozen.size:
                S[frozen] = saved
            still = S[:, _C_REMAINING] > 0.0
            active = still if active is None else active & still
            if not bool(active.any()):
                break
        if float(S[:, _C_ROUNDS].max()) > _MAX_ROUNDS_PER_CHUNK:
            raise RuntimeError("transmission did not terminate")
        self.state[a] = S
        return np.nonzero(S[:, _C_REMAINING] <= 0.0)[0]

    def _scalar_rounds(self, lane: _Lane) -> None:
        """Scalar twin of the round loop (drains straggler lanes); the
        arithmetic matches transmit()/BbrLike.on_round bit for bit."""
        i = lane.idx
        link = lane.link
        assert link is not None
        # Hoist the lane's state row into locals (tolist()/item() round-
        # trip float64 exactly); -inf ring padding keeps max(ring) == the
        # deque max.
        row = self.state[i].tolist()
        remaining = row[_C_REMAINING]
        elapsed = row[_C_ELAPSED]
        send_at = row[_C_SEND_ABS]
        rounds = int(row[_C_ROUNDS])
        cwnd = row[_C_CWND]
        queue = row[_C_QUEUE]
        base_rtt = row[_C_BASE_RTT]
        srtt = row[_C_SRTT]
        min_rtt = row[_C_MIN_RTT]
        drate = row[_C_DRATE]
        cc_min_rtt = row[_C_CC_MIN_RTT]
        in_startup = row[_C_IN_STARTUP] != 0.0
        baseline = row[_C_BASELINE]
        stale = int(row[_C_STALE])
        pos = int(row[_C_RING_POS])
        count = int(row[_C_RING_COUNT])
        ring = self.ring[:, i].tolist()
        window = 0.0
        capacity_at = link.capacity_at
        while remaining > 0:
            rounds += 1
            if rounds > _MAX_ROUNDS_PER_CHUNK:
                raise RuntimeError("transmission did not terminate")
            capacity_Bps = capacity_at(send_at + elapsed) / 8.0
            window = min(cwnd, remaining)
            app_limited = remaining < cwnd
            drain_time = window / capacity_Bps
            queue_delay = queue / capacity_Bps
            rtt_sample = base_rtt + queue_delay
            link_limited = drain_time > rtt_sample
            duration = max(rtt_sample, drain_time)
            if link_limited:
                queue = max(window - capacity_Bps * base_rtt, 0.0)
            else:
                queue = 0.0
            delivery_rate = window * 8.0 / duration
            bw_pre = max(ring) if count > 0 else 0.0
            if not app_limited or delivery_rate > bw_pre:
                ring[pos] = delivery_rate
                pos = (pos + 1) % _BW_FILTER_ROUNDS
                count = min(count + 1, _BW_FILTER_ROUNDS)
            cc_min_rtt = min(cc_min_rtt, rtt_sample)
            bw = max(ring) if count > 0 else 0.0
            if in_startup:
                if bw > baseline * _FULL_PIPE_GROWTH:
                    baseline = bw
                    stale = 0
                elif not app_limited:
                    stale += 1
                    if stale >= _FULL_PIPE_ROUNDS:
                        in_startup = False
                if not app_limited:
                    cwnd *= 2.0
            if not in_startup and bw > 0 and cc_min_rtt < float("inf"):
                cwnd = _CWND_GAIN * ((bw / 8.0) * cc_min_rtt)
            cwnd = min(max(cwnd, _CWND_FLOOR), _MAX_CWND_BYTES)
            srtt = (1.0 - _SRTT_GAIN) * srtt + _SRTT_GAIN * rtt_sample
            min_rtt = min(min_rtt, rtt_sample)
            if not app_limited or delivery_rate > drate:
                drate = delivery_rate
            remaining -= window
            elapsed += duration
        row[_C_REMAINING] = remaining
        row[_C_ELAPSED] = elapsed
        row[_C_ROUNDS] = float(rounds)
        row[_C_CWND] = cwnd
        row[_C_QUEUE] = queue
        row[_C_SRTT] = srtt
        row[_C_MIN_RTT] = min_rtt
        row[_C_DRATE] = drate
        row[_C_CC_MIN_RTT] = cc_min_rtt
        row[_C_IN_STARTUP] = 1.0 if in_startup else 0.0
        row[_C_BASELINE] = baseline
        row[_C_STALE] = float(stale)
        row[_C_RING_POS] = float(pos)
        row[_C_RING_COUNT] = float(count)
        row[_C_IN_FLIGHT] = window
        self.state[i] = row
        self.ring[:, i] = ring

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _complete(self, lane: _Lane) -> None:
        lane.state = _FREE
        # One gather hands the round loop's writes back to the glue.
        lane.row = self.state[lane.idx].tolist()
        if self._after_transmission(lane):
            self._drive(lane)
            return
        if self._end_stream(lane):
            self._drive(lane)
            return
        # Session finished: hand the lane the next pending session.
        if self._fill(lane):
            self._drive(lane)

    def drain(self, session_ids: Sequence[int]) -> Dict[int, SessionShard]:
        self._pending = iter(session_ids)
        self._pending_done = False
        # The in-flight set is kept incrementally: a parallel (lanes, idxs)
        # pair maintained by swap-removal, so the driver loop does O(done)
        # work per round instead of rescanning every lane.
        fly: List[_Lane] = []
        idxs = np.empty(len(self.lanes), dtype=np.int64)
        for lane in self.lanes:
            if not self._fill(lane):
                break
            self._drive(lane)
            if lane.state == _FLY:
                idxs[len(fly)] = lane.idx
                fly.append(lane)
        n = len(fly)
        while n:
            if self._pending_done and n <= _SCALAR_DRAIN_MAX:
                # Tail mode: so few lanes remain that ufunc dispatch costs
                # more than scalar arithmetic — drain each lane's session
                # to completion with the scalar twin of the round loop.
                for lane in fly[:n]:
                    while lane.state == _FLY:
                        self._scalar_rounds(lane)
                        self._complete(lane)
                n = 0
                continue
            done_pos = self._vector_round(fly, idxs[:n])
            # Descending order keeps pending positions valid across the
            # swap-removals (lane order never affects results: lanes are
            # independent and arm counters are commutative sums).
            for j in range(len(done_pos) - 1, -1, -1):
                pos = int(done_pos[j])
                lane = fly[pos]
                self._complete(lane)
                if lane.state != _FLY:
                    n -= 1
                    fly[pos] = fly[n]
                    idxs[pos] = idxs[n]
                    del fly[n]
        return self.shards


@sanitizer.guarded("run_session_batch")
def run_session_batch(
    specs: Sequence[SchemeSpec],
    config: TrialConfig,
    session_ids: Sequence[int],
    expt_ids: Optional[Mapping[str, int]] = None,
    algorithms: Optional[Mapping[str, AbrAlgorithm]] = None,
    lanes: int = 64,
) -> List[SessionShard]:
    """Simulate ``session_ids`` through the batch kernel.

    Bit-identical to ``[run_session(specs, config, sid, ...) for sid in
    session_ids]`` at every ``lanes`` value.  Sessions that cannot be
    vectorized — a non-vectorizable ABR scheme, a CUBIC path, or any
    telemetry/observability collection — run on the scalar path instead,
    inside this call.  Shards are returned in ``session_ids`` order.
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    ids = list(session_ids)
    if not ids:
        return []
    if expt_ids is None:
        expt_ids = assign_expt_ids(specs, config.seed)
    if algorithms is None:
        algorithms = {spec.name: spec.build() for spec in specs}
    if config.collect_telemetry or config.observability or obs.ENABLED:
        # Telemetry/observability hooks live throughout the scalar stack;
        # reproducing their record streams is outside the kernel's scope.
        return [
            run_session(specs, config, sid, expt_ids, algorithms)
            for sid in ids
        ]
    engine = _BatchEngine(
        specs, config, expt_ids, algorithms, min(lanes, len(ids))
    )
    # The kernel allocates millions of small acyclic objects (records,
    # stream results); generational GC scans are pure overhead at that
    # rate (~20% of wall time), so collection is suspended for the run.
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        shards = engine.drain(ids)
    finally:
        if was_enabled:
            gc.enable()
    return [shards[sid] for sid in ids]
