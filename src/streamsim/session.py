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
the client reads once a tick's playback is done, reads(phs), the bytes
it reads on each tick that leaves the playhead at phs[i] (the full tick
asks it for one tick, a planned run for a column), and when it does more,
acts(pos, got, ph, used) of the buffer's pos, the media seconds delivered,
the playhead and the bytes consumed; act() is that more (reset or reopen a
connection, end or start a burst, request a segment).  The planner asks
the buffer how a run's bytes become media, and never which kind it is.

Time moves in fixed ticks (10 ms by default), and every tick is planned or
full.  A full tick is one kernel event: the connection advances, the fast
start may end, playback moves, the client acts or reads, the server serves.
One planner (_chunk) lays out the ticks after it in runs, each a Plan that
names the rule ending it, played in bulk inside the same event (_flow) with
the same rules and float operations, so the outputs are those of a session
that runs every tick as its own event.  A run's pacing is transport.py's.
Only the session reads the kernel's clock: a full tick hands its time,
`now`, to the connection and the policy, and a plan hands the connection
the times of its ticks, so neither of them keeps a clock.

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
from functools import partial
from itertools import accumulate, compress, repeat
from operator import sub

from .binade import Ticks
from .kernel import Kernel
from .media import MediaBuffer, SegmentBuffer, check_positive, dash_pick_quality
from .transport import CLOSE_KINDS, DATA, DOWN, UP, Transport, check_connection

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
# most ticks a paced run builds at once; a longer one takes several
_STRETCH = 512
QUIET, PACED, WINDOWED = "QUIET", "PACED", "WINDOWED"  # the kinds of run (_run_kind)


class DeadlockError(RuntimeError):
    """Raised when playback does not finish by the horizon (diagnostic, not a crash)."""


def _drain(phs):
    return repeat(_BIG, len(phs) - 1)


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
        if not self.fast_start_s >= 0:
            raise ValueError("fast_start_s must be >= 0, not %r" % (self.fast_start_s,))
        if self.kind == THROTTLE:
            if self.throttle_factor is None or not 1.0 < self.throttle_factor < math.inf:
                raise ValueError("throttle_factor must be > 1 and finite, not %r"
                                 % (self.throttle_factor,))
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
            if self.dash_target_s is None or not self.dash_target_s > 0:
                raise ValueError("dash_target_s must be > 0, not %r" % (self.dash_target_s,))
            if not 0.0 < self.dash_safety <= 1.0:
                raise ValueError("dash_safety must be in (0, 1]")
        return self


@dataclass
class Stall:
    start: float
    end: float | None = None


class Samples:
    """Buffer samples (t, bytes, media_s) in time order, read as a list; derive()
    works out their columns on the first read (MediaBuffer.samples), and they are kept."""

    __slots__ = ("derive", "cols")

    def __init__(self, derive):
        self.derive, self.cols = derive, None

    def _columns(self):
        if self.cols is None:
            self.cols, self.derive = self.derive(), None  # and lets go of the books
        return self.cols

    def __len__(self):
        return len(self._columns()[0])

    def __getitem__(self, i):
        return list(self)[i] if isinstance(i, slice) else tuple(c[i] for c in self._columns())

    def __iter__(self):
        return zip(*self._columns())

    def __eq__(self, other):
        return list(self) == other

    def __repr__(self):
        return repr(list(self))

    def __deepcopy__(self, memo):
        return list(self)


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
    buffer_series: list = field(default_factory=list)  # (t, bytes, media_s), worked out when read
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

    def start(self, session, now):
        session._open(now, self.video.total_bytes)

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

    def act(self, session, now):
        if session._conn_open():
            session.conn.close(now, "RST")
            return
        buf, kf = session.buffer, self.video.keyframe_spacing
        buf.dup = buf.pos % kf if self.technique.keyframe_waste and kf > 0 else 0
        session._open(now, buf.dup + (self.video.total_bytes - buf.pos))

    def on_data(self, session, now):
        """Bytes arrived by `now`; the buffer has booked them."""

    def steady(self, session, now):
        """The fast start has ended at `now`."""

    def writes(self, ends):
        """The server's writes on the ticks ending at `ends` after its first:
        none, as it queues the whole file up front."""
        return ()

    def book(self, writes, k):
        """Take the writes (writes()) on the first k ticks as made; returns their bytes."""
        return 0

    def serve(self, session, now):
        """The server's step after the client's on the full tick at `now`: the writes due by then."""
        written = self.book(self.writes((now,)), 1)
        if written:
            session.conn.enqueue(written)


class EncodingRate(Policy):
    def steady_rule(self, session):
        return self.reads, None

    def reads(self, phs):
        """The client reads the bytes of the next tick of media: on the tick
        that leaves playback at phs[i], those up to phs[i + 1]."""
        cums = self.video.cum_bytes_at(phs)
        return list(map(math.ceil, map(sub, cums[1:], cums)))


class Throttle(Policy):
    """A server that paces at throttle_factor times the encoding rate.

    A bursty one (burst_size) writes only the fast start's bytes up front,
    then from the fast start's end burst_size bytes every interval, the
    time the throttled rate takes to carry them, until the file is written.
    The full tick (serve()) and a paced plan (session._lay_bytes) make the
    writes by the one rule of writes().
    """

    server_left = 0  # undelivered bytes for the bursty server

    def start(self, session, now):
        if self.technique.burst_size is None:
            return super().start(session, now)
        # bursty server: only the fast-start chunk is written up front
        session._open(now, session.buffer.ready_at)
        self.server_left = self.video.total_bytes - session.buffer.ready_at

    def steady(self, session, now):
        t = self.technique
        if t.burst_size is None:
            session.conn.set_rate_cap(t.throttle_factor * self.video.avg_rate_bps)
        elif self.server_left:
            self.burst_next = now
            self.interval = t.burst_size * 8.0 / (t.throttle_factor * self.video.avg_rate_bps)

    def writes(self, ends):
        """(i, bytes, next) for each of the bursty server's writes on the ticks
        ending at `ends`, in order: ends[i] is the first tick time that
        reaches the write's time, and `next` the time of the write after it
        (inf after the last).  The times run on as the float sum
        burst_next + interval, so several writes may fall on one tick."""
        out = []
        at, left, i = self.burst_next, self.server_left, 0
        while (i := bisect_left(ends, at, i)) < len(ends):
            n = min(self.technique.burst_size, left)
            left -= n
            at = at + self.interval if left else math.inf
            out.append((i, n, at))
        return out

    def book(self, writes, k):
        written = 0
        for i, n, at in writes:
            if i >= k:
                break
            written += n
            self.burst_next = at
        self.server_left -= written
        return written


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

    def act(self, session, now):
        self.reading = not self.reading
        if not self.reading:
            self.steady(session, now)
        elif not session._conn_open():
            session._open(now, self.video.total_bytes - session.buffer.pos)

    def steady(self, session, now):
        # a burst ends; per burst, so does its connection
        self.reading = False
        if self.technique.connection_mode == PER_BURST:
            session.conn.close(now, "RST")


class Dash(Policy):
    """Segments requested one at a time while the buffer is short of its target.

    After an upward quality switch the client also re-fetches up to
    dash_refetch_depth of the newest held segments that have not begun to
    play, at the new level, on the same connection and after the new
    segment.  The download ends once the connection's send queue is empty.
    A re-fetched copy then replaces a held segment that has still not begun
    to play, whose old copy is wasted, when dash_replaced_counts_waste is
    set; otherwise the re-fetched copy is wasted.
    """

    buffer = SegmentBuffer
    # the download under way, which is the whole send queue: (t_request,
    # bytes, level, start, length, segment bytes, [(held segment, bytes
    # re-fetched)])
    outstanding = None
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

    def start(self, session, now):
        session._open(now, 0)  # each segment is requested on its own

    def rule(self, session):
        may_request = self.outstanding is None and self.requested < self.n_segments
        return _drain, self.buffer_short if may_request else None

    def buffer_short(self, pos, got, ph, used):
        """The client requests the next segment while this holds."""
        return got - ph < self.target

    def steady(self, session, now):
        self.target = self.technique.dash_target_s

    def act(self, session, now):
        if self.tputs:
            est = len(self.tputs) / sum(1.0 / x for x in self.tputs)
            level = dash_pick_quality(self.video.ladder, est, self.technique.dash_safety)
        else:
            level = 0  # playlist default entry before any throughput sample
        start = self.requested * self.seg_dur
        length = min(self.seg_dur, self.video.duration_s - start)
        nbytes = self._fetch(session, now, level, length)
        refetched = []
        if self.last_level is not None and level > self.last_level:
            segments = session.buffer.segments
            depth = self.technique.dash_refetch_depth
            for i in range(len(segments) - 1, max(-1, len(segments) - 1 - depth), -1):
                if segments[i][0] < session.playhead:
                    break
                refetched.append((i, self._fetch(session, now, level, segments[i][1])))
        self.outstanding = (now, session.conn.send_queue, level, start, length, nbytes, refetched)
        self.requested += 1
        self.last_level = level

    def _fetch(self, session, now, level, length):
        """Request `length` media seconds at `level` at `now`; returns their bytes."""
        nbytes = int(round(self.video.ladder[level].bandwidth_bps * length / 8.0))
        session.conn.request(now)
        session.conn.enqueue(nbytes)
        return nbytes

    def on_data(self, session, now):
        if self.outstanding is None or session.conn.send_queue:
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


class Plan:
    """A run of k ticks after a full tick for _flow to play in bulk (README,
    "Time model"): ticks 0..k of the clock ts and the playheads phs (None
    while playback stands); for a paced or windowed run, what
    Connection.plan lays out: the sizes ns and running bytes upto of ticks
    1.., the ticks that fill the window (fills), and the connection's
    transport.Pacing after tick k, with the server's writes (Policy.writes)
    that a paced run carries; and cut, the rule that ends it."""

    __slots__ = ("k", "ts", "phs", "ns", "upto", "fills", "writes", "pacing", "cut")

    def __init__(self, k, ts, phs, cut=None):
        self.k, self.ts, self.phs, self.cut = k, ts, phs, cut
        self.ns = self.upto = self.fills = self.pacing = None
        self.writes = ()


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
        max_sim_time = max_sim_time or (3.0 * video.duration_s + 900.0)
        check_positive("tick_s", tick_s)
        check_connection(recv_capacity, probe_interval)  # Transport.open's check, up front
        check_positive("sample_interval", sample_interval)
        check_positive("max_sim_time", max_sim_time)
        self.video = video
        self.technique = technique
        self.path = path
        self.kernel = kernel or Kernel()
        self.transport = Transport(path, seed=seed)
        self.tick_s = tick_s
        self.recv_capacity = recv_capacity
        self.probe_interval = probe_interval
        # buffer samples fall on every n-th tick, counted, not on float time
        self._sample_every = max(1, round(sample_interval / tick_s))
        # watch ends still to come, as fractions with the next one last; the
        # session's own is the largest and ends the run (_also_watch)
        self._pending = [watched_fraction]
        self.watched_end = watched_fraction * video.duration_s
        # fraction -> (metrics, records, how many of them open this timeline) of each ended watch
        self._ended_watches = {}
        self.max_sim_time = max_sim_time

        self.phase = FAST_START  # then STEADY while playing, then DRAINED
        self.playhead = 0.0
        self.stalled = False
        self.conn = None
        self._ticks = 0             # ticks played, quiet ones included
        self._next_sample = 1       # the tick that takes the next buffer sample
        self.metrics = SessionMetrics(kind=technique.kind)
        self.policy = POLICIES[technique.kind](self)
        self.buffer = self.policy.buffer(video, technique.fast_start_s, technique.buffer_cap)
        self.metrics.buffer_series = Samples(self.buffer.samples)

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
        self.policy.start(self, self.kernel.now)
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
        moved_t = max(self.metrics.delivery_end_t, played_t)
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

    def _open(self, now, nbytes):
        """Open a connection at `now` and ask the server for nbytes on it."""
        self.conn = self.transport.open(now, self.recv_capacity, self.probe_interval)
        self.metrics.connection_bytes.setdefault(self.conn.id, 0)
        self.conn.enqueue(nbytes)

    def _conn_open(self):
        return self.conn is not None and self.conn.state == "OPEN"

    # -- per-tick pipeline -------------------------------------------------

    def _tick(self):
        now = self.kernel.now
        dt = self.tick_s
        buf = self.buffer
        for rec in self.conn.advance(now, dt, buf.limit(buf.pos, buf.consumed, buf.dup)):
            if rec.kind == DATA:
                buf.arrive(rec.payload)
                self._on_data(rec.payload, rec.conn_id, now)
        if self.phase == FAST_START and buf.ready():
            self.phase = STEADY
            self.metrics.fast_start_end_t = self.metrics.startup_s = now
            self.policy.steady(self, now)
        self._playback(now, dt)
        self._ticks += 1
        if self.phase == DRAINED:
            return
        # the client acts where acts() says, then reads by the rule it leaves
        reads, acts = self.policy.rule(self)
        if acts is not None and acts(buf.pos, buf.delivered(), self.playhead, buf.consumed):
            self.policy.act(self, now)
            reads, _ = self.policy.rule(self)
        if reads is not None:
            want, = reads((self.playhead, self.playhead + dt))
            self.conn.read(want, now)
        self.policy.serve(self, now)
        if self._ticks >= self._next_sample:
            self._book((now,), self.playhead, slice(None))
        buf.check()
        self.kernel.schedule(self._play_quiet(now), self._tick)

    def _play_quiet(self, now):
        """Play the ticks after the full tick at `now` that _chunk lays out (_flow).

        Returns the time of the next full tick, the first that no plan
        covers (_chunk says which), or the tick at the horizon: the kernel
        runs it and never runs the ones after it.
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
        """Play and book the plans _chunk lays out after the full tick at `t`.

        Returns the time of the last tick played; the span ends where _chunk
        has no plan.  A plan's bytes arrive in the buffer, the connection
        settles with the server's writes in the plan (Policy.book), and the
        playhead, the tick count and the next sample move on, before the
        next plan is laid out, so the session's books are live between
        plans.  A plan that fills the window emits its DATA records and a
        zero-window advertisement after each fill in one call; the other
        records are emitted at the end, where the span's bytes go through
        _on_data once: a DASH download completes only on a full tick.
        """
        conn, buf = self.conn, self.buffer
        moving = self.phase == STEADY and not self.stalled
        every = self._sample_every
        emit_run = self.transport.emit_run
        times, sizes = [], []
        sent = 0  # bytes of the span's DATA records
        while plan := self._chunk(t):
            k, ts, phs, upto = plan.k, plan.ts, plan.phs, plan.upto
            first = self._next_sample - self._ticks
            if first <= k:
                self._book(ts, phs if moving else self.playhead, slice(first, k + 1, every),
                           upto and upto[first - 1:k:every])
            if plan.pacing is not None:
                ns, filled, ads = plan.ns, 0, []
                for f in plan.fills:
                    # as advance(): the DATA records, then the zero-window ad
                    times += compress(ts[filled + 1:f + 1], ns[filled:f])
                    sizes += filter(None, ns[filled:f])
                    ads.append(len(times))
                    filled = f
                times += compress(ts[filled + 1:k + 1], ns[filled:k])
                sizes += filter(None, ns[filled:k])
                if ads:
                    emit_run(DOWN, DATA, conn.id, times, sizes, ads)
                    times, sizes = [], []
                nbytes = upto[k - 1]
                if nbytes:
                    sent += nbytes
                    last_t = ts[bisect_left(upto, nbytes, 0, k) + 1]  # its last DATA record
                    buf.arrive(nbytes)
                conn.settle(nbytes, plan.pacing, self.policy.book(plan.writes, k))
            self._ticks, t = self._ticks + k, ts[k]
            if moving:
                self.playhead = phs[k]
                self._sync_consumed()  # the store limit reads it
        if times:
            emit_run(DOWN, DATA, conn.id, times, sizes)
        if sent:
            # the span's bytes, through the metrics and the policy once
            self._on_data(sent, conn.id, last_t)
        return t

    def _chunk(self, t):
        """A Plan of the ticks after the full tick at `t` for _flow to play in
        bulk, up to the first tick the full tick must play, or None where
        that is the next.  It reads the session's books, the connection and
        the policy and changes none: the run's kind (_run_kind), its first
        tick alone, so that a refused plan costs little, then its clock
        (_lay_clock), bytes (_lay_bytes, which carries the bursty server's
        writes through a paced run) and cuts (_cut_search).
        """
        dt, horizon, burst_next = self.tick_s, self.max_sim_time, self.policy.burst_next
        if t + dt >= horizon:
            return None
        # the server's next write is the connection's next action: a quiet
        # run stops before it, a paced run carries it, a windowed one cannot
        conn_t = min(self.conn.next_action(t, dt), burst_next)
        reads, acts = self.policy.rule(self)
        kind = self._run_kind(t + dt, conn_t, reads, acts)
        stop_t = min(burst_next, horizon) if kind is WINDOWED else horizon
        if kind is None or t + dt >= stop_t:
            return None
        buf, playhead = self.buffer, self.playhead
        moving = self.phase == STEADY and not self.stalled
        delivered = buf.delivered()
        # a paced run plays the tick that empties the queue, and after it, with
        # no rule to test, idles on; a windowed run leaves that tick to the full tick
        left, rest = buf.run_bytes(self.conn.send_queue, self.phase == FAST_START)
        rest = rest and kind is PACED
        idles = rest and acts is None and buf.cap is None
        # the first tick alone
        phs = [playhead, playhead + dt] if moving else None
        if moving and self._stands(phs, 1, delivered):
            return None
        if acts is not None or buf.cap is not None:  # a quiet or paced run
            plan = Plan(1, [t, t + dt], phs)
            if kind is QUIET and acts is not None and self._holds(1, plan, acts, delivered):
                return None
            if kind is PACED:
                self._lay_bytes(plan, reads, left, rest, idles)
                if not plan.k or self._holds(1, plan, acts, delivered, self._reach(plan)):
                    return None
        plan = self._lay_clock(t, min(stop_t, conn_t) if kind is QUIET else stop_t, stop_t, kind,
                               delivered, left, idles)
        credits = None if kind is QUIET else self._lay_bytes(plan, reads, left, rest, idles)
        if not plan.k:
            return None
        self._cut_search(plan, acts, delivered)
        if credits is not None and plan.k < len(credits):
            # the cut search ended a paced run early: the credit after its last tick
            plan.pacing = plan.pacing._replace(credit=credits[plan.k - 1])
        return plan

    def _run_kind(self, end, conn_t, reads, acts):
        """QUIET, PACED or WINDOWED: the kind of the run whose first tick ends
        at `end`, or None where that tick is the full tick's (README)."""
        conn, buf = self.conn, self.buffer
        if end < conn_t and (reads is None or not conn.recv_occupancy):
            return QUIET
        if reads is None or self.stalled:
            # the sender fills a window the client leaves alone, or the
            # bytes that end a stall arrive on a full tick
            return None
        if reads is _drain and conn.drains(self.tick_s):
            return PACED
        return WINDOWED if acts is None and buf.cap is None and not buf.dup else None

    def _lay_clock(self, t, bound, stop_t, kind, delivered, left, idles):
        """A Plan of the ticks after `t` up to the clock's `bound`, cut where
        the watch ends or playback runs dry on the media delivered.  Clock
        and playheads are the full tick's float additions: lists for a paced
        run, which sends on every tick, and binade.Ticks for a quiet one."""
        # build no more ticks than the clock, the bytes, the delivered media
        # and the watch leave room for, give or take one
        dt, playhead, buf = self.tick_s, self.playhead, self.buffer
        moving = self.phase == STEADY and not self.stalled
        room = (bound - t) / dt
        if moving:
            room = min(room, (min(self.watched_end, delivered) - playhead) / dt)
        byte_rate = self.conn.byte_rate if kind is PACED else 0
        if byte_rate > 0:
            per_tick = byte_rate * dt
            if not idles:
                room = min(room, left / per_tick)
            # a tick of playback, and 2 B
            if buf.cap is not None and per_tick > (slack := buf.cap - self.policy.full_at):
                # about the ticks until a sender that outpaces playback fills the store
                room = min(room, (buf.dup + buf.cap - (buf.pos - buf.consumed)) / (per_tick - slack))
        quiet = kind is QUIET
        k = int(room if quiet else min(room, _STRETCH - 2)) + 2
        plan = Plan(k, Ticks(t, dt, k) if quiet else list(accumulate(repeat(dt, k), initial=t)),
                    None, "stretch")
        if moving:  # one playhead more: an ENCODING_RATE client reads up to a tick past it
            plan.phs = Ticks(playhead, dt, k + 1) if quiet else list(
                accumulate(repeat(dt, k + 1), initial=playhead))
        played = bisect_left(plan.ts, bound, 1, k + 1) - 1
        if played < k:
            plan.k, plan.cut = played, "clock" if plan.ts[played + 1] >= stop_t else "next_action"
        if moving:
            # near where the float thresholds put it, then onto _stands()'s own answer
            phs = plan.phs
            x = min(self.watched_end - dt - 1e-12, delivered + 1e-9 - dt)
            j = bisect_left(phs, x, 1, played) + 1
            while j > 2 and self._stands(phs, j - 1, delivered):
                j -= 1
            while j <= played and not self._stands(phs, j, delivered):
                j += 1
            if j <= played:
                plan.k, plan.cut = j - 1, "dry" if delivered - phs[j - 1] + 1e-9 < dt else "watch"
        return plan

    def _lay_bytes(self, plan, reads, left, rest, idles):
        """Lay out the bytes of the plan's ticks, up to the first that the full
        tick must play for them: one Connection.plan call for the ticks up to
        each of the server's writes (Policy.writes; a windowed run has none)
        and for those after the last, with the credit carried from each to
        the next.  A write grows the queue after the tick that serves it, as
        on a full tick (send, read, serve).  With `rest` the run plays the
        tick that empties the queue, and with `idles` goes on past it, sending
        nothing and keeping the credit, as from an empty queue.  A run that
        Connection.plan cuts, on its last tick too, takes the cut's name.
        Returns the credit after each tick."""
        k, ts, dt, conn = plan.k, plan.ts, self.tick_s, self.conn
        # only a client whose playback moves reads less than all it holds
        wants = None if reads is _drain else reads(plan.phs[1:k + 2])
        plan.writes = writes = self.policy.writes(ts[1:k + 1])
        ns, credits, credit, start, to_send, cut, sizes = [], [], None, 0, left, None, ()
        for i, n, _ in [*writes, (k - 1, 0, None)]:
            if i >= start:  # the ticks up to this write's, or the run's last
                to_send -= sum(sizes)  # what the last call sent
                sizes, cs, plan.fills, plan.pacing, cut = conn.plan(ts[start:i + 2], dt, wants,
                                                                    to_send, rest, credit)
                ns += sizes
                credits += cs
                start, credit = start + len(sizes), plan.pacing.credit
                if idles and cut == "queue":
                    ns += repeat(0, i + 1 - start)
                    credits += repeat(credit, i + 1 - start)
                    start, cut = i + 1, None
                if start <= i:
                    break
            if n:  # a write refills the queue: a queue cut before it is no cut
                to_send, cut = to_send + n, None
        plan.ns, plan.upto = ns, list(accumulate(ns))
        if cut:
            # bytes that reach `left` short of the queue's end reach the fast start's
            fast_start = cut == "queue" and left < conn.send_queue
            plan.k, plan.cut = start, "fast_start" if fast_start else cut
        return credits

    def _cut_search(self, plan, acts, delivered):
        """Cut the plan before the first tick after its first that the store
        limit, from _reach on, or `acts` stops.  `acts` is bisected where it
        is monotone, over a run that moves no media or whose later ticks each
        add more media than a tick plays, and scanned elsewhere."""
        played, ns, buf = plan.k, plan.ns, self.buffer
        reach = scan_from = self._reach(plan)
        if acts is not None and played > 1:
            monotone = plan.phs is None or ns is None
            if not monotone:
                # ticks that repeat held media, or send nothing, only let the
                # store shrink: past them, every tick must outpace playback
                grows = bisect_right(plan.upto, buf.dup, 0, played) + 1
                got = buf.delivered(buf.pos_after(plan.upto[played - 1]))
                monotone = min(ns[grows:played], default=_BIG) > 1 + self.tick_s * max(
                    self.video.schedule[int(self.playhead):int(got) + 1], default=0)
            if monotone:
                holds = partial(self._holds, plan=plan, acts=acts, delivered=delivered)
                played = plan.k = bisect_left(range(2, played + 1), True, key=holds) + 1
            else:
                scan_from = 2
        for j in range(max(2, scan_from), played + 1):
            if self._holds(j, plan, acts, delivered, reach):
                plan.k = j - 1
                return

    def _reach(self, plan):
        """The first tick of a paced plan that the store limit may cut: used only
        grows, so only once pos comes within the run's largest tick of the cap."""
        buf = self.buffer
        if buf.cap is None or plan.ns is None or not plan.k:
            return _BIG
        edge = buf.cap + buf.consumed - max(plan.ns[:plan.k]) - 2
        return 1 if buf.pos > edge else bisect_right(plan.upto, edge - buf.pos + buf.dup) + 2

    def _holds(self, j, plan, acts, delivered, reach=_BIG):
        """Whether the store limit, from tick `reach` on, or `acts` stops tick
        j of the plan; if so plan.cut names the rule."""
        buf = self.buffer
        if j >= reach:
            pos, used = self._books_at(plan, j - 1)
            before = buf.dup - plan.upto[j - 2] if j > 1 else buf.dup
            if plan.ns[j - 1] >= buf.limit(pos, used, max(0, before)):
                plan.cut = "limit"
                return True
        if acts is None:
            return False
        pos, used = self._books_at(plan, j)
        if pos != buf.pos:
            delivered = buf.delivered(pos)
        if acts(pos, delivered, self.playhead if plan.phs is None else plan.phs[j], used):
            plan.cut = acts.__name__
            return True
        return False

    def _books_at(self, plan, j):
        """The buffer's pos and consumed after tick j of the plan."""
        buf = self.buffer
        pos = buf.pos_after(plan.upto[j - 1]) if j and plan.ns else buf.pos
        if plan.phs is None or not j:
            return pos, buf.consumed
        return pos, buf.consumed_at(plan.phs[j], pos)

    def _stands(self, phs, j, delivered):
        """Whether playback cannot take tick j whole: the watch ends or it runs dry."""
        dt, ph, end = self.tick_s, phs[j - 1], self.watched_end
        return end - ph < dt or delivered - ph + 1e-9 < dt or phs[j] >= end - 1e-12

    def _on_data(self, nbytes, conn_id, now):
        """Count nbytes that arrived on conn_id by `now`, which the buffer has booked."""
        m = self.metrics
        m.connection_bytes[conn_id] = m.connection_bytes.get(conn_id, 0) + nbytes
        m.delivery_end_t = now
        self.policy.on_data(self, now)

    def _playback(self, now, dt):
        if self.phase != STEADY:
            return
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
            if self.playhead + step < self.watched_end - 1e-12:
                break  # the watch goes on
            if self._finish(now, step):
                return
        self.playhead += step
        self._sync_consumed()

    def _sync_consumed(self):
        buf = self.buffer
        buf.consumed = buf.consumed_at(self.playhead, buf.pos)

    # -- wrap-up -----------------------------------------------------------

    def _finish(self, now, step):
        """End the watch at watched_end with a last playback step of `step`
        on the full tick at `now`.

        Its metrics and its close are those of a session that watches just
        that far.  The last watch end finishes this session.  An earlier one
        leaves the session as it is: it keeps a copy of the metrics, and the
        timeline of a copy of the transport (Transport.copy) that emits the
        close record, and the session goes on to the next watch end.
        Returns whether the session is done.
        """
        buf = self.buffer
        fraction = self._pending.pop()
        done = not self._pending
        playhead = self.playhead + step
        consumed = buf.consumed_at(playhead, buf.pos)
        wasted = buf.wasted + max(0.0, buf.held(consumed))
        mode = "FIN" if self.watched_end >= self.video.duration_s - 1e-9 else "RST"
        m, prefix = self.metrics, len(self.transport.records.time)
        if done:
            self.phase = DRAINED
            self.playhead, buf.consumed, buf.wasted = playhead, consumed, wasted
            if self._conn_open():
                self.conn.close(now, mode)
            records = self.transport.records
        else:
            m = replace(
                m,
                stalls=[replace(s) for s in m.stalls],
                connection_bytes=dict(m.connection_bytes),
                dash_quality_history=list(m.dash_quality_history),
            )
            transport = self.transport.copy()
            if self._conn_open():
                transport.emit(now, UP, 0, CLOSE_KINDS[mode], self.conn.id)
            records = transport.records
            self.watched_end = self._pending[-1] * self.video.duration_s
        m.duration_s = m.end_t = now
        m.watched_s = playhead
        m.received_total = buf.received
        m.consumed_bytes = consumed
        m.wasted_bytes = wasted
        m.stall_total_s = sum(
            (s.end if s.end is not None else now) - s.start for s in m.stalls
        )
        # the samples so far, shared with the session, then the buffer empties
        n, end = len(buf.books), (now, 0.0, 0.0)
        m.buffer_series = Samples(lambda: [[*c, x] for c, x in zip(buf.samples(n), end)])
        self._ended_watches[fraction] = (m, records, prefix)
        return done

    def _book(self, ts, phs, at, upto=None):
        """Book the buffer samples at ticks `at` of the clock ts (MediaBuffer.book)."""
        self._next_sample = self._ticks + range(len(ts))[at][-1] + self._sample_every
        self.buffer.book(ts, phs, at, upto)
