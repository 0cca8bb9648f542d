"""Streaming session engine: five delivery techniques over one transport pipe.

Techniques, named by what the client/server pair actually does on the wire:

  ENCODING_RATE  client reads from the socket at the media consumption rate,
                 so receive-window flow control paces the sender and the trace
                 fills with zero-window advertisements.
  THROTTLE       server caps its send rate at throttle_factor x encoding rate
                 after a fast start; optionally ships fixed-size bursts whose
                 spacing is derived from the burst size and throttled rate.
                 An optional playback store cap turns this into the
                 multi-connection variant: the client resets the connection
                 when the store fills and re-requests once space frees, wasting
                 the partially held key frame on every reconnect.
  ON_OFF         client drains the socket in large bursts between a low and a
                 high watermark of buffered media; the connection either stays
                 up between bursts (zero-window probes keep it alive) or is
                 torn down and re-opened per burst with a byte-range request.
  FAST_CACHING   no server pacing at all; the whole file arrives as fast as
                 the path allows.
  DASH           client fetches ~equal-duration segments from a quality ladder
                 and keeps a target amount of buffered media, rate-adapting on
                 a harmonic-mean throughput estimate.

Every session starts with a fast start: unlimited-rate delivery until a
configured amount of media is buffered, at which point playback begins.

A session is a transport (transport.py) that moves bytes, a MediaBuffer
(media.py) that books them, and a policy, which is the technique.  A policy
writes each client rule once: rule() gives, for the session's state, what
the client reads once a tick's playback is done, reads(playhead), and when
it does more, acts(pos, got, ph, used) of the buffer's pos, the media
seconds delivered, the playhead and the bytes consumed; act() is that more
(reset or reopen a connection, end or start a burst, request a segment).

Time moves in fixed ticks (10 ms by default).  A full tick is one kernel
event: the connection advances, the fast start may end, playback moves, the
client acts or reads, the server serves.  Most ticks are played inside the
event of the full tick before them (_flow), with the same policy methods
and the same float operations, so the outputs are those of a session that
runs every tick as its own event.  Runs that move no byte, and steady paced
runs, are laid out in bulk by one planner (_chunk).  A span ends before the
first tick that would do more than move bytes under the pacing allowance,
fill the receive window, read, or play.

One session may end several watches of the same clip: its own, which is
the longest, and shorter ones added with _also_watch (the harness runs a
whole abandonment sweep as one session this way).  The full tick that
reaches a watch end works out what a session watching just that far would
do (_finish), from copies that leave this session's state, timeline and
jitter draws as they are, then goes on to the next watch end.

Byte accounting is exact and matches the wire: every byte billed arrived
in a DATA record, and is consumed, still buffered, or wasted.  The identity
is asserted after every full tick and at the end of every span.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import accumulate, compress, repeat
from operator import sub

from .kernel import Kernel
from .media import MediaBuffer, SegmentBuffer, dash_pick_quality
from .media import QualityLevel, VideoSpec  # noqa: F401  (re-exported: they lived here first)
from .transport import CLOSE_KINDS, DATA, DOWN, UP, ZERO_WINDOW, Transport

ENCODING_RATE = "ENCODING_RATE"
THROTTLE = "THROTTLE"
ON_OFF = "ON_OFF"
FAST_CACHING = "FAST_CACHING"
DASH = "DASH"
KINDS = (ENCODING_RATE, THROTTLE, ON_OFF, FAST_CACHING, DASH)

PERSISTENT = "PERSISTENT"
PER_BURST = "PER_BURST"

FAST_START = "FAST_START"
STEADY = "STEADY"
DRAINED = "DRAINED"

_BIG = 1 << 62
# most ticks one bulk run builds and searches at once; a longer run takes
# several
_STRETCH = 512
# fewest ticks a paced run needs room for: a shorter one costs more than it saves
_FLOOR = 64


class DeadlockError(RuntimeError):
    """Raised when playback does not finish by the horizon (diagnostic, not a crash)."""


def _drain(playhead):
    return _BIG


@dataclass
class TechniqueSpec:
    kind: str
    fast_start_s: float = 0.0
    throttle_factor: float | None = None
    burst_size: int | None = None
    connection_mode: str = PERSISTENT
    low_watermark_s: float | None = None
    high_watermark_s: float | None = None
    buffer_cap: int | None = None
    keyframe_waste: bool = False
    reopen_headroom: int | None = None
    dash_target_s: float | None = None
    dash_safety: float = 1.0
    dash_refetch_depth: int = 0
    dash_replaced_counts_waste: bool = False

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError("unknown technique kind %r" % self.kind)
        if self.fast_start_s < 0:
            raise ValueError("fast_start_s must be >= 0")
        if self.kind == THROTTLE:
            if self.throttle_factor is None or self.throttle_factor <= 1.0:
                raise ValueError("throttle_factor must be > 1")
            if self.burst_size is not None and self.burst_size <= 0:
                raise ValueError("burst_size must be positive")
            if self.buffer_cap is not None:
                if self.buffer_cap <= 0:
                    raise ValueError("buffer_cap must be positive")
                if self.burst_size is not None:
                    raise ValueError("buffer_cap and burst_size do not combine")
        if self.kind == ON_OFF:
            lo, hi = self.low_watermark_s, self.high_watermark_s
            if lo is None or hi is None or not 0 <= lo < hi:
                raise ValueError("need watermarks with 0 <= low < high")
            if self.connection_mode not in (PERSISTENT, PER_BURST):
                raise ValueError("connection_mode must be PERSISTENT or PER_BURST")
        if self.kind == DASH:
            if self.dash_target_s is None or self.dash_target_s <= 0:
                raise ValueError("dash_target_s must be > 0")
            if not 0.0 < self.dash_safety <= 1.0:
                raise ValueError("dash_safety must be in (0, 1]")
        return self


@dataclass
class Stall:
    start: float
    end: float | None = None


@dataclass
class SessionMetrics:
    kind: str
    duration_s: float = 0.0            # wall-clock session length
    watched_s: float = 0.0             # media seconds actually played
    received_total: int = 0
    consumed_bytes: float = 0.0
    wasted_bytes: float = 0.0
    startup_s: float = 0.0             # delay until playback began
    fast_start_end_t: float = 0.0
    delivery_end_t: float = 0.0        # time of the last DATA record
    end_t: float = 0.0
    stalls: list = field(default_factory=list)
    stall_total_s: float = 0.0
    connection_bytes: dict = field(default_factory=dict)
    buffer_series: list = field(default_factory=list)  # (t, bytes, media_s)
    dash_quality_history: list = field(default_factory=list)

    @property
    def connection_count(self):
        return len(self.connection_bytes)


# -- policies: each technique's client and server rules ----------------------


class Policy:
    """FAST_CACHING, and the rules every progressive technique shares.

    The server sends the whole file at path speed, and in the fast start the
    client reads all that arrives.  With a store cap the client resets the
    connection once the store is full, and once it has drained opens a new
    one that re-requests from the start of the held key frame.
    """

    buffer = MediaBuffer
    burst_next = math.inf  # when the server writes its next burst

    def __init__(self, session):
        t, video = session.technique, session.video
        self.technique, self.video, self.tick_s = t, video, session.tick_s
        if t.buffer_cap is not None:
            # the store is full once free space is under one tick of playback:
            # capped delivery refills what playback drains and never gets closer
            slack = int(max(video.schedule) * session.tick_s) + 2
            # a store that reopens within the slack still counts as full, and
            # the client resets the new connection before a byte arrives
            headroom = t.reopen_headroom or max(1, t.buffer_cap // 32)
            if headroom <= slack:
                raise ValueError(
                    "reopen headroom of %d B must exceed the store slack of %d B "
                    "(one tick of the clip's highest rate plus 2 B)" % (headroom, slack)
                )
            self.full_at = t.buffer_cap - slack
            self.reopen_at = t.buffer_cap - headroom

    def start(self, session):
        session._open(self.video.total_bytes)

    def rule(self, session):
        """(reads, acts) in the session's state: None where the client reads
        nothing, or never does more than read.  Only a policy's act() closes
        a connection, so until then the client reads from an open one."""
        if session.phase == FAST_START:
            return _drain, None
        return self.steady_rule(session)

    def steady_rule(self, session):
        if self.technique.buffer_cap is None:
            return _drain, None
        if session._conn_open():
            return _drain, self.store_full
        return None, self.store_reopens

    def store_full(self, pos, got, ph, used):
        """Capped store: the client resets the connection once this holds."""
        return pos >= self.video.total_bytes or pos - used >= self.full_at

    def store_reopens(self, pos, got, ph, used):
        """Capped store: the closed connection reopens once this much has drained."""
        return pos < self.video.total_bytes and pos - used <= self.reopen_at

    def act(self, session):
        if session._conn_open():
            session.conn.close("RST")
            return
        buf, kf = session.buffer, self.video.keyframe_spacing
        buf.dup = buf.pos % kf if self.technique.keyframe_waste and kf > 0 else 0
        session._open(buf.dup + (self.video.total_bytes - buf.pos))

    def on_data(self, session, nbytes, now):
        """nbytes arrived; the buffer has booked them."""

    def steady(self, session):
        """The fast start has ended."""

    def serve(self, session):
        """The server's step on a full tick: writes a burst due by now."""


class EncodingRate(Policy):
    def steady_rule(self, session):
        return self.reads, None

    def reads(self, playhead):
        """The client reads the bytes of the next tick of media: VideoSpec.cum_bytes
        at playhead + tick_s less at playhead, spelled out with its float operations."""
        v = self.video
        cum, schedule, duration = v._cum, v.schedule, v.duration_s
        t = playhead + self.tick_s
        j = int(t)
        hi = (cum[j] + (t - j) * schedule[j] if 0 < t < duration
              else 0.0 if t <= 0 else float(v.total_bytes))
        j = int(playhead)
        lo = (cum[j] + (playhead - j) * schedule[j] if 0 < playhead < duration
              else 0.0 if playhead <= 0 else float(v.total_bytes))
        return math.ceil(hi - lo)


class Throttle(Policy):
    server_left = 0  # undelivered bytes for the bursty server

    def start(self, session):
        if self.technique.burst_size is None:
            return super().start(session)
        # bursty server: only the fast-start chunk is written up front
        session._open(session.buffer.ready_at)
        self.server_left = self.video.total_bytes - session.buffer.ready_at

    def steady(self, session):
        t = self.technique
        if t.burst_size is None:
            session.conn.set_rate_cap(t.throttle_factor * self.video.avg_rate_bps)
        elif self.server_left:
            self.burst_next = session.kernel.now
            self.interval = t.burst_size * 8.0 / (t.throttle_factor * self.video.avg_rate_bps)

    def serve(self, session):
        while self.burst_next <= session.kernel.now:
            n = min(self.technique.burst_size, self.server_left)
            session.conn.enqueue(n)
            self.server_left -= n
            self.burst_next = self.burst_next + self.interval if self.server_left else math.inf


class OnOff(Policy):
    reading = True  # the fast start is a burst

    def steady_rule(self, session):
        if self.reading:
            return _drain, self.burst_ends
        return None, self.below_low_watermark

    def burst_ends(self, pos, got, ph, used):
        """The client stops reading once the file is in or the high watermark reached."""
        return pos >= self.video.total_bytes or got - ph >= self.technique.high_watermark_s

    def below_low_watermark(self, pos, got, ph, used):
        """The client resumes reading once buffered media falls this low."""
        return pos < self.video.total_bytes and got - ph <= self.technique.low_watermark_s

    def act(self, session):
        self.reading = not self.reading
        if not self.reading:
            self.steady(session)
        elif not session._conn_open():
            session._open(self.video.total_bytes - session.buffer.pos)

    def steady(self, session):
        # a burst ends; per burst, so does its connection
        self.reading = False
        if self.technique.connection_mode == PER_BURST:
            session.conn.close("RST")


class Dash(Policy):
    """Segments requested one at a time while the buffer is short of its target.

    After an upward quality switch the client also re-fetches up to
    dash_refetch_depth of the newest held segments that have not begun to
    play, at the new level, on the same connection and after the new
    segment.  The download ends once all of it is in.  A re-fetched copy
    then replaces a held segment that has still not begun to play, whose
    old copy is wasted, when dash_replaced_counts_waste is set; otherwise
    the re-fetched copy is wasted.
    """

    buffer = SegmentBuffer
    # the download under way, which is the whole send queue: (t_request,
    # bytes, level, start, length, segment bytes, [(held segment, bytes
    # re-fetched)])
    outstanding = None
    left = 0  # its bytes still to arrive
    requested = 0  # segments so far
    last_level = None
    target = math.inf  # media seconds to keep buffered: all of it in the fast start

    def __init__(self, session):
        v = session.video
        if not v.ladder:
            raise ValueError("DASH needs a quality ladder on the video")
        seg = v.ladder[0].segment_s
        if any(abs(q.segment_s - seg) > 1e-9 for q in v.ladder):
            raise ValueError("all ladder levels must share one segment duration")
        super().__init__(session)
        self.seg_dur = seg
        self.n_segments = int(math.ceil(v.duration_s / seg))
        self.tputs = deque(maxlen=3)

    def start(self, session):
        session.conn = session.transport.open(session.recv_capacity, session.probe_interval)

    def rule(self, session):
        if self.outstanding is not None or self.requested >= self.n_segments:
            return _drain, None
        return _drain, self.buffer_short

    def buffer_short(self, pos, got, ph, used):
        """The client requests the next segment while this holds."""
        return got - ph < self.target

    def steady(self, session):
        self.target = self.technique.dash_target_s

    def act(self, session):
        if self.tputs:
            est = len(self.tputs) / sum(1.0 / x for x in self.tputs)
            level = dash_pick_quality(self.video.ladder, est, self.technique.dash_safety)
        else:
            level = 0  # playlist default entry before any throughput sample
        start = self.requested * self.seg_dur
        length = min(self.seg_dur, self.video.duration_s - start)
        nbytes = self._fetch(session, level, length)
        refetched = []
        if self.last_level is not None and level > self.last_level:
            segments = session.buffer.segments
            depth = self.technique.dash_refetch_depth
            for i in range(len(segments) - 1, max(-1, len(segments) - 1 - depth), -1):
                if segments[i][0] < session.playhead:
                    break
                refetched.append((i, self._fetch(session, level, segments[i][1])))
        self.left = nbytes + sum(n for _, n in refetched)
        self.outstanding = (session.kernel.now, self.left, level, start, length, nbytes, refetched)
        self.requested += 1
        self.last_level = level

    def _fetch(self, session, level, length):
        """Request `length` media seconds at `level`; returns their bytes."""
        nbytes = int(round(self.video.ladder[level].bandwidth_bps * length / 8.0))
        session.conn.request()
        session.conn.enqueue(nbytes)
        return nbytes

    def on_data(self, session, nbytes, now):
        self.left -= nbytes
        if self.outstanding is None or self.left > 0:
            return
        t_request, total, level, start, length, seg_bytes, refetched = self.outstanding
        self.outstanding = None
        self.tputs.append(total * 8.0 / max(now - t_request, self.tick_s))
        buf = session.buffer
        buf.add(start, length, seg_bytes)
        session.metrics.dash_quality_history.append(level)
        for i, n in refetched:
            if self.technique.dash_replaced_counts_waste and buf.segments[i][0] >= session.playhead:
                buf.replace(i, n)
            else:
                buf.waste(n)


POLICIES = {
    ENCODING_RATE: EncodingRate,
    THROTTLE: Throttle,
    ON_OFF: OnOff,
    FAST_CACHING: Policy,
    DASH: Dash,
}


class StreamingSession:
    """Drives one playback session on the kernel's clock, one kernel action per full tick."""

    def __init__(
        self,
        video,
        technique,
        path,
        *,
        kernel=None,
        watched_fraction=1.0,
        tick_s=0.01,
        recv_capacity=65536,
        probe_interval=5.0,
        seed=0,
        sample_interval=0.1,
        max_sim_time=None,
    ):
        technique.validate()
        if not 0.0 < watched_fraction <= 1.0:
            raise ValueError("watched_fraction must be in (0, 1]")
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.video = video
        self.technique = technique
        self.path = path
        self.kernel = kernel or Kernel()
        self.transport = Transport(path, self.kernel, seed=seed)
        self.tick_s = tick_s
        self.recv_capacity = recv_capacity
        self.probe_interval = probe_interval
        # buffer samples fall on every n-th tick, counted, not on float time
        self._sample_every = max(1, round(sample_interval / tick_s))
        # watch ends still to come, as fractions with the next one last; the
        # session's own is the largest and ends the run (_also_watch)
        self._pending = [watched_fraction]
        self.watched_end = watched_fraction * video.duration_s
        # fraction -> (SessionMetrics, records) of every watch that has ended
        self._ended_watches = {}
        self.max_sim_time = max_sim_time or (3.0 * video.duration_s + 900.0)

        self.phase = FAST_START  # then STEADY while playing, then DRAINED
        self.playhead = 0.0
        self.stalled = False
        self.conn = None
        self._ticks = 0             # ticks played, quiet ones included
        self._next_sample = 1       # the tick that takes the next buffer sample
        self._last_data_t = 0.0
        self.metrics = SessionMetrics(kind=technique.kind)
        self.policy = POLICIES[technique.kind](self)
        self.buffer = self.policy.buffer(video, technique.fast_start_s, technique.buffer_cap)

    # -- lifecycle ---------------------------------------------------------

    def _also_watch(self, fractions):
        """End a watch at each of these fractions too, as a snapshot of this run.

        Up to the tick on which its playhead reaches its end, a shorter watch
        delivers what this one does; there it finishes as a session that
        watches only that far would (_finish), and this run goes on.  Call
        before run(); a fraction above the session's own is rejected.
        """
        own = self._pending[0]
        for f in fractions:
            if not 0.0 < f <= own:
                raise ValueError("watched fraction %r outside (0, %r]" % (f, own))
        self._pending = sorted({own, *fractions}, reverse=True)
        self.watched_end = self._pending[-1] * self.video.duration_s

    def run(self):
        self.policy.start(self)
        self.kernel.schedule(self.kernel.now + self.tick_s, self._tick)
        self.kernel.run_until(self.max_sim_time)
        if self.phase != DRAINED:
            raise DeadlockError(self._unfinished_cause())
        return self.metrics

    def _unfinished_cause(self):
        """Why playback did not finish by the horizon: too slow, or stuck,
        and if stuck whether a full store admits no byte."""
        now = self.kernel.now
        buf = self.buffer
        if self.phase != STEADY:
            played_t = 0.0
        elif self.stalled:
            played_t = self.metrics.stalls[-1].start
        else:
            played_t = now  # the playhead moved on the last tick
        moved_t = max(self._last_data_t, played_t)
        if now - moved_t <= max(1.0, 4.0 * self.path.rtt_s):
            cause = "too slow for the horizon, still progressing at t=%.2f" % moved_t
        else:
            cause = "stuck, no media byte or playhead movement since t=%.2f" % moved_t
            if buf.limit(buf.pos, buf.consumed, buf.dup) == 0:
                cause += ", with the store full (%.0f B held, cap %d B) and %d B still queued" % (
                    buf.held(buf.consumed), buf.cap, self.conn.send_queue,
                )
        # media seconds, not bytes: a DASH store counts the bytes of the
        # levels it fetched, refetches included, which the clip's bytes do not bound
        return "%s: delivered %.2f of %d s by t=%.1f (phase=%s playhead=%.2f conn=%s)" % (
            cause, buf.delivered(), self.video.duration_s, now, self.phase, self.playhead,
            "open" if self._conn_open() else "closed",
        )

    def _open(self, nbytes):
        """Open a connection and ask the server for nbytes on it."""
        self.conn = self.transport.open(self.recv_capacity, self.probe_interval)
        self.metrics.connection_bytes.setdefault(self.conn.id, 0)
        self.conn.enqueue(nbytes)

    def _conn_open(self):
        return self.conn is not None and self.conn.state == "OPEN"

    # -- per-tick pipeline -------------------------------------------------

    def _tick(self):
        now = self.kernel.now
        dt = self.tick_s
        buf = self.buffer
        limit = buf.limit(buf.pos, buf.consumed, buf.dup)
        for rec in self.conn.advance(dt, limit=limit):
            if rec.kind == DATA:
                self._on_data(rec.payload, rec.conn_id, now)
        if self.phase == FAST_START and buf.ready():
            self._steady()
        self._playback(dt)
        if self.phase == DRAINED:
            return
        # the client acts where acts() says, then reads by the rule it leaves
        reads, acts = self.policy.rule(self)
        if acts is not None and acts(buf.pos, buf.delivered(), self.playhead, buf.consumed):
            self.policy.act(self)
            reads, _ = self.policy.rule(self)
        if reads is not None:
            self.conn.read(reads(self.playhead))
        self.policy.serve(self)
        self._ticks += 1
        if self._ticks >= self._next_sample:
            self._sample(now)
        buf.check()
        self.kernel.schedule(self._play_quiet(now), self._tick)

    def _play_quiet(self, now):
        """Play the ticks after the full tick at `now` that change little (_flow).

        Returns the time of the next full tick.  The first tick that could do
        more is left to the kernel: one whose delivery is cut by the queue or
        the store limit or blocked on a zero window, that finishes a DASH
        download or the fast start, runs playback dry, ends a stall or
        reaches the next watch end, on which the client acts, or the bursty
        server's next burst.  So is the tick at the horizon: the kernel runs
        it and never runs the ones after it.
        """
        t = self._flow(now)
        if t != now:
            # Inside a span the drift term gains nothing (received and pos
            # plus wasted grow by the same bytes), consumed never exceeds
            # pos, and every delivery stays under the store limit, so the
            # check at its end implies the check on every tick inside it.
            self.buffer.check()
        return t + self.tick_s

    def _flow(self, t):
        """Play the ticks after the full tick at `t`, the connection and the books in locals.

        Returns the time of the last tick played.  A run of ticks that moves
        no byte and reads nothing (a quiet run), and a run of steady paced
        ticks with no act rule, play in bulk as _chunk plans them; a quiet
        tick it leaves ends the span.  Any other tick plays one at a time: it
        sends the sender's whole pacing allowance, or the free receive window
        (and advertises it zero, as advance() does), or paces zero bytes with
        window room.  Then the client reads what reads() says, and playback
        advances unless it is stalled or has not begun.  A tick spells out
        transport.paced, the store limit, the playback rules and a
        progressive consumed_at with their float operations, and tests the
        rules of the full tick in its order.

        The connection is written back where the window closes or reopens
        (the Connection changes the window state and asks next_action again)
        and at the span's end.  The DATA records are emitted where the window
        fills, with its zero-window advertisement, and at the span's end;
        their bytes are booked once, at the end.  No tick waits on the books:
        close_window, reopen_window and next_action read only the connection,
        a sample comes from the locals (MediaBuffer.held is pos - consumed),
        a DASH download completes only on a tick the queue cuts, never played
        here, and one arrive() of the sum books what one per fill would.
        """
        dt = self.tick_s
        conn, video, buf = self.conn, self.video, self.buffer
        stop_t = min(self.policy.burst_next, self.max_sim_time)
        conn_t = conn.next_action(dt, t)
        reads, acts = self.policy.rule(self)
        cap = buf.cap
        capped = cap is not None
        moving = self.phase == STEADY and not self.stalled
        # Bytes may arrive only while the client reads them and playback is
        # not stalled: a full tick leaves a stall in place only with under
        # 1e-9 s of media to play, and no tick ends it unless bytes arrive.
        flows = reads is not None and not self.stalled
        # A tick whose bytes reach to_go ends a progressive fast start.  A
        # DASH download is the whole send queue, so the queue cuts the tick
        # that ends it, and below that segments deliver no media.
        progressive = not isinstance(buf, SegmentBuffer)
        starting = progressive and self.phase == FAST_START
        to_go = buf.ready_at - buf.pos if starting else _BIG
        draining = reads is _drain
        consumed_at = buf.consumed_at
        watched_end = self.watched_end
        done_at = watched_end - 1e-12  # as _watch_done
        credit, queue, occ = conn._rate_frac, conn.send_queue, conn.recv_occupancy
        resume, capacity = conn._resume_at, conn.recv_capacity
        byte_rate = conn._rate_bps() / 8.0
        zero = conn.window_state == ZERO_WINDOW
        media_pos, dup, consumed = buf.pos, buf.dup, buf.consumed
        playhead = self.playhead
        delivered = buf.delivered()
        # media_time() of media_pos as a forward cursor, since media_pos
        # never falls: cum[i] <= media_pos < cum[i + 1] while it is under total
        cum, schedule, total = video._cum, video.schedule, video.total_bytes
        duration = video.duration_s
        i = bisect_right(cum, media_pos) - 1
        ticks, next_sample, every = self._ticks, self._next_sample, self._sample_every
        series = self.metrics.buffer_series
        emit_run = self.transport.emit_run
        times, sizes = [], []
        sent = 0  # bytes of the records emitted at window fills
        # the first tick at which to plan a run of steady paced ticks
        bulk_from = ticks if draining and acts is None and flows and not capped and not dup else _BIG
        while t + dt < stop_t:
            plan = None
            if t + dt < conn_t and (reads is None or not occ):
                plan = self._chunk(t, min(stop_t, conn_t), acts, None,
                                   media_pos, playhead, consumed, delivered)
                if plan is None:
                    break
            elif ticks >= bulk_from and resume <= t and not occ and not zero:
                pace = resume, credit, byte_rate, capacity, queue if queue < to_go else to_go
                plan = self._chunk(t, stop_t, None, pace, media_pos, playhead, consumed, delivered)
                if plan is None:
                    bulk_from = ticks + _FLOOR
            if plan is not None:
                k, ts, phs, ns, upto, after = plan
                for j in range(next_sample - ticks, k + 1, every):
                    pos = media_pos + upto[j - 1] if upto else media_pos
                    # media_time and consumed_at give what the locals would hold
                    media = video.media_time(pos) if progressive and pos != media_pos else delivered
                    ph = phs[j] if moving else playhead
                    used = consumed_at(ph, pos) if moving else consumed
                    series.append((ts[j], pos - used, media - ph))
                    next_sample = ticks + j + every
                if upto:
                    times += compress(ts[1:], ns)
                    sizes += filter(None, ns)
                    nbytes = upto[k - 1]
                    queue, to_go, media_pos = queue - nbytes, to_go - nbytes, media_pos + nbytes
                    if progressive and nbytes:
                        # the media cursor i catches up on the next tick that moves bytes
                        delivered = video.media_time(media_pos)
                    credit = after
                ticks, t = ticks + k, ts[k]
                if moving:
                    playhead = phs[k]
                    consumed = consumed_at(playhead, media_pos)  # the store limit reads it
                continue
            t_next = t + dt
            n = 0
            fills = False
            new_pos, used = media_pos, consumed
            if t_next >= conn_t:
                if not flows:
                    break
                # min(), max(), MediaBuffer.limit and transport.paced spelled
                # out in this loop: a call costs more than the rest of a line
                room = capacity - occ
                if queue < room:
                    room = queue
                if capped:
                    free = int(cap - (media_pos - consumed))
                    limit = dup + (free if free > 0 else 0)
                    if limit < room:
                        room = limit
                start = t_next - dt
                eligible = t_next - (resume if resume > start else start)
                paced_credit = credit
                if eligible > 0 and queue > 0:
                    allowance = byte_rate * eligible + credit
                    n = int(allowance)
                    paced_credit = allowance - n
                    if n > room:
                        n, paced_credit = room, 0.0
                if n == room:
                    # cut short: only a send that just fills the window plays
                    if not 0 < n == capacity - occ < queue or (capped and n >= limit):
                        break
                    fills = True
                if n:
                    if n >= to_go:
                        break
                    # as MediaBuffer.arrive: the first dup bytes repeat held media
                    d = (n if n < dup else dup) if dup else 0
                    new_pos = media_pos + n - d
                    if progressive and new_pos != media_pos:
                        if new_pos >= total:
                            delivered = float(duration)
                        else:
                            while cum[i + 1] <= new_pos:
                                i += 1
                            delivered = i + (new_pos - cum[i]) / schedule[i]
            ahead = playhead
            if moving:
                step = watched_end - playhead
                if step > dt:
                    step = dt
                if delivered - playhead + 1e-9 < step:  # runs dry, as in _playback
                    break
                ahead = playhead + step
                if ahead >= done_at:
                    break
                if capped and progressive:
                    # as MediaBuffer.consumed_at(ahead, new_pos)
                    j = int(ahead)
                    used = (cum[j] + (ahead - j) * schedule[j] if 0 < ahead < duration
                            else 0.0 if ahead <= 0 else float(total))
                    if used >= new_pos:
                        used = float(new_pos)
                elif capped:
                    used = consumed_at(ahead, new_pos)
            if acts is not None and acts(new_pos, delivered, ahead, used):
                break
            # the tick plays
            if t_next >= conn_t:
                credit = paced_credit
            if n:
                queue -= n
                occ += n
                to_go -= n
                times.append(t_next)
                sizes.append(n)
                dup -= d
                media_pos = new_pos
            playhead, consumed = ahead, used
            turns = fills  # the window closes or reopens on this tick
            if fills:
                # as advance(): the DATA records, then the zero-window ad
                emit_run(DOWN, DATA, conn.id, times, sizes, True)
                sent += sum(sizes)
                times, sizes = [], []
                last_t = t_next
                conn.close_window(t_next)
                zero = True
            if reads is not None and occ:
                # as Connection.read
                got = occ if draining else int(reads(playhead))
                if got > occ:
                    got = occ
                if got > 0:
                    occ -= got
                    if zero:
                        conn.reopen_window(t_next)
                        resume, zero, turns = conn._resume_at, False, True
            if turns:
                conn._rate_frac, conn.send_queue, conn.recv_occupancy = credit, queue, occ
                conn_t = conn.next_action(dt, t_next)
            t = t_next
            ticks += 1
            if ticks >= next_sample:
                if moving and progressive:
                    # as MediaBuffer.consumed_at(playhead, media_pos)
                    j = int(playhead)
                    consumed = (cum[j] + (playhead - j) * schedule[j] if 0 < playhead < duration
                                else 0.0 if playhead <= 0 else float(total))
                    if consumed >= media_pos:
                        consumed = float(media_pos)
                elif moving:
                    consumed = consumed_at(playhead, media_pos)
                series.append((t, media_pos - consumed, delivered - playhead))
                next_sample = ticks + every
        conn._rate_frac, conn.send_queue, conn.recv_occupancy = credit, queue, occ
        if times:
            emit_run(DOWN, DATA, conn.id, times, sizes)
            sent += sum(sizes)
            last_t = times[-1]
        if sent:
            # the span's bytes, booked once
            conn.delivered_total += sent
            self._on_data(sent, conn.id, last_t)
        self.playhead, self._ticks, self._next_sample = playhead, ticks, next_sample
        if moving:
            self._sync_consumed()
        return t

    def _chunk(self, t, stop_t, acts, pace, media_pos, playhead, consumed, delivered):
        """Plan a run of ticks after `t`, ending before `stop_t`, that _flow plays in bulk.

        Without `pace` the run moves no byte and ends where `acts` holds.
        With pace = (resume, credit, byte_rate, capacity, bytes_left) it is
        a run of steady paced ticks with the resume time behind its first
        tick, so each tick's eligible time is its own length and only the
        credit recurrence is a loop.  The clock and the playhead come from
        accumulate: the per-tick loop's float operations, in its order.  The
        run ends before the first tick the per-tick loop could cut, found by
        bisection as each rule is monotone over the run: the clock, the bytes
        against `bytes_left` (the queue or the rest of the fast start), the
        playhead against the watch end and running dry on the run's first
        `delivered` (a lower bound), and `acts`, tested alone on the first
        tick as a burst's high watermark and a full store go false as the
        playhead grows.  A paced run needs room for _FLOOR ticks and ends at
        a tick whose allowance fills the window.  Returns None, or (k, ts,
        phs, sizes, upto, credit): the clock and playheads (None if playback
        stands) of ticks 0..k, and for a paced run the k sizes, the bytes
        sent by each tick and the credit after tick k.
        """
        dt = self.tick_s
        watched_end = self.watched_end
        moving = self.phase == STEADY and not self.stalled
        # build no more ticks than the clock, the bytes, the delivered media
        # and the watch leave room for, give or take one
        room = (stop_t - t) / dt
        if moving:
            room = min(room, (min(watched_end, delivered) - playhead) / dt)
        if pace is not None:
            resume, credit, byte_rate, capacity, bytes_left = pace
            per_tick = byte_rate * dt
            room = min(room, bytes_left / per_tick if per_tick > 0 else _BIG)
            if room < _FLOOR or resume > t + dt - dt or per_tick + 1.0 >= capacity:
                return None
        k = int(min(room, _STRETCH - 2)) + 2
        ts = list(accumulate(repeat(dt, k), initial=t))
        phs = list(accumulate(repeat(dt, k), initial=playhead)) if moving else None
        played = bisect_left(ts, stop_t, 1) - 1
        if pace is not None:
            ends = ts[1:]
            allowances = []
            for eligible in map(sub, ends, map(sub, ends, repeat(dt))):
                allowance = byte_rate * eligible + credit
                n = int(allowance)
                credit = allowance - n
                allowances.append(allowance)
            sizes = list(map(int, allowances))
            upto = list(accumulate(sizes))
            played = min(played, bisect_left(upto, bytes_left))
            if max(sizes) >= capacity:
                played = min(played, next(j for j, n in enumerate(sizes) if n >= capacity))
        done_at = watched_end - 1e-12  # as _watch_done

        def stops(j):
            """Whether tick j (to ts[j], playhead to phs[j]) needs the per-tick code."""
            if not moving:
                return acts is not None and acts(media_pos, delivered, playhead, consumed)
            ph, ahead = phs[j - 1], phs[j]
            if watched_end - ph < dt or delivered - ph + 1e-9 < dt or ahead >= done_at:
                return True
            return acts is not None and acts(
                media_pos, delivered, ahead, self.buffer.consumed_at(ahead, media_pos))

        if not played or stops(1):
            return None
        played = bisect_left(range(2, played + 1), True, key=stops) + 1
        if pace is None:
            return played, ts, phs, None, None, None
        return played, ts, phs, sizes[:played], upto, allowances[played - 1] - sizes[played - 1]

    def _on_data(self, nbytes, conn_id, now):
        """Book nbytes that arrived on conn_id by `now`."""
        self.metrics.connection_bytes[conn_id] = (
            self.metrics.connection_bytes.get(conn_id, 0) + nbytes
        )
        self._last_data_t = now
        self.buffer.arrive(nbytes)
        self.policy.on_data(self, nbytes, now)

    def _steady(self):
        self.phase = STEADY
        self.metrics.fast_start_end_t = self.kernel.now
        self.metrics.startup_s = self.kernel.now
        self.policy.steady(self)

    def _playback(self, dt):
        if self.phase != STEADY:
            return
        now = self.kernel.now
        avail_media = self.buffer.delivered() - self.playhead
        if self.stalled:
            if avail_media <= 1e-9:
                return
            self.stalled = False
            self.metrics.stalls[-1].end = now
        while True:
            # a watch that ends within the tick plays a clipped step; a
            # longer one goes on with its own step once that watch has ended
            step = min(dt, self.watched_end - self.playhead)
            if avail_media + 1e-9 < step:
                # the delivered media cannot cover a whole step: it ran dry
                # mid-tick, so advance what we can, then freeze
                self.playhead += max(0.0, avail_media)
                self._sync_consumed()
                self.stalled = True
                self.metrics.stalls.append(Stall(start=now))
                return
            if not self._watch_done(self.playhead + step):
                break
            if self._finish(step):
                return
        self.playhead += step
        self._sync_consumed()

    def _watch_done(self, playhead):
        return playhead >= self.watched_end - 1e-12

    def _sync_consumed(self):
        buf = self.buffer
        buf.consumed = buf.consumed_at(self.playhead, buf.pos)

    # -- wrap-up -----------------------------------------------------------

    def _finish(self, step):
        """End the watch at watched_end with a last playback step of `step`.

        Its metrics and its close are those of a session that watches just
        that far.  The last watch end finishes this session.  An earlier one
        leaves the session as it is: it keeps copies of the metrics and of
        the timeline, with a close record whose jitter is drawn from a copy
        of the transport's state, and the session goes on to the next watch
        end.  Returns whether the session is done.
        """
        now = self.kernel.now
        buf = self.buffer
        fraction = self._pending.pop()
        done = not self._pending
        playhead = self.playhead + step
        consumed = buf.consumed_at(playhead, buf.pos)
        wasted = buf.wasted + max(0.0, buf.held(consumed))
        mode = "FIN" if self.watched_end >= self.video.duration_s - 1e-9 else "RST"
        m = self.metrics
        if done:
            self.phase = DRAINED
            self.playhead, buf.consumed, buf.wasted = playhead, consumed, wasted
            if self._conn_open():
                self.conn.close(mode)
            records = self.transport.records
        else:
            m = replace(
                m,
                stalls=[replace(s) for s in m.stalls],
                connection_bytes=dict(m.connection_bytes),
                buffer_series=list(m.buffer_series),
                dash_quality_history=list(m.dash_quality_history),
            )
            records = self.transport.records.copy()
            if self._conn_open():
                records.append(
                    self.transport.detached(now, UP, 0, CLOSE_KINDS[mode], self.conn.id)
                )
            self.watched_end = self._pending[-1] * self.video.duration_s
        m.duration_s = now
        m.end_t = now
        m.watched_s = playhead
        m.received_total = buf.received
        m.consumed_bytes = consumed
        m.wasted_bytes = wasted
        m.delivery_end_t = self._last_data_t
        m.stall_total_s = sum(
            (s.end if s.end is not None else now) - s.start for s in m.stalls
        )
        m.buffer_series.append((now, 0.0, 0.0))
        self._ended_watches[fraction] = (m, records)
        return done

    def _sample(self, t):
        """Buffer sample of the full tick that ends at t, read from the books.

        Spans take their samples themselves, with the same arithmetic, from
        the books they hold in locals (_flow).
        """
        buf = self.buffer
        self.metrics.buffer_series.append(
            (t, buf.held(buf.consumed), buf.delivered() - self.playhead)
        )
        self._next_sample = self._ticks + self._sample_every
