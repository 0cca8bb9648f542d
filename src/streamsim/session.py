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

Time moves in fixed ticks (10 ms by default).  Most ticks are played inside
the kernel event of the full tick before them, with the same float
operations the full tick makes (transport.paced paces both), so the
outputs are those of a session that runs every tick as its own event.  Such
a span plays:

  quiet ticks   no byte moves; the playhead advances (ON_OFF pauses, the
                rest of a watch once the file is in, DASH above its target);
  flow ticks    the sender moves its whole pacing allowance with queue,
                window and store room to spare, and the client reads it
                (throttled delivery, fast starts, ON_OFF bursts, DASH
                segments);
  fill ticks    the sender moves just the free receive window, short of its
                allowance, and advertises a zero window (ENCODING_RATE
                window refills);
  zero-byte pacing ticks
                the sender has window room but paces no byte, as on the tick
                that ends at or within float error of its resume time;
  read ticks    ENCODING_RATE reads one tick of media from the socket while
                the sender waits out the rtt after the window reopened;

and, while no byte arrives, ticks before playback begins and ticks of a
stall.  A span ends before the first tick that would do more: a delivery
cut short by the queue or the store limit, a probe, or a tick on which a
rule acts.  Each rule that ends one is the rule the full tick applies.

Ticks that move bytes are played one at a time (_flow), with the
connection's credit, queue and receive buffer in locals.  The connection is
written back where its window closes or reopens and at the run's end; the
byte books and the run's DATA records (one Transport.emit_run) before each
zero-window advertisement, before each buffer sample and at the run's end.

Inside a span, a run of ticks that moves no byte and reads nothing is
played as one stretch: its clock and playhead are built with
itertools.accumulate, which makes the same float additions one at a time,
and the first tick a rule acts on is found by bisection.  That is exact
because, while no byte moves, every rule is monotone in the playhead: float
subtraction and addition are monotone and cum_bytes never falls.  The two
rules that stop fewer ticks as the playhead grows (a burst's high watermark,
a full store) are tested on the stretch's first tick before any bisection,
and once false they stay false.  Buffer samples inside a stretch are taken
by tick index.

Byte accounting is exact: every received byte is classified as consumed,
still buffered, or wasted, and the identity is asserted after every full
tick and at the end of every span.
"""

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from .kernel import Kernel
from .transport import DATA, DOWN, ZERO_WINDOW, Transport, paced

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
# most ticks one bulk stretch builds and searches at once; a longer run of
# quiet ticks takes several stretches
_STRETCH = 512


class DeadlockError(RuntimeError):
    """Raised when playback does not finish by the horizon (diagnostic, not a crash)."""


def _runs_dry(avail_media, step):
    """Playback stalls when the delivered media cannot cover a whole step."""
    return avail_media + 1e-9 < step


def _drain(playhead):
    return _BIG


@dataclass(frozen=True)
class QualityLevel:
    bandwidth_bps: float
    label: str
    segment_s: float

    def __post_init__(self):
        if self.bandwidth_bps <= 0 or self.segment_s <= 0:
            raise ValueError("quality level needs positive bandwidth and segment duration")


class VideoSpec:
    """A clip as a per-second byte schedule plus optional quality ladder."""

    def __init__(self, schedule, keyframe_spacing=0, ladder=None):
        schedule = [int(b) for b in schedule]
        if not schedule or any(b < 0 for b in schedule):
            raise ValueError("schedule must be a non-empty list of non-negative byte counts")
        self.schedule = schedule
        self.duration_s = len(schedule)
        self.total_bytes = sum(schedule)
        if self.total_bytes <= 0:
            raise ValueError("video has no bytes")
        self.avg_rate_bps = 8.0 * self.total_bytes / self.duration_s
        self.keyframe_spacing = int(keyframe_spacing)
        self.ladder = list(ladder) if ladder else []
        # cumulative bytes at whole-second boundaries, C[i] = bytes of media [0, i)
        cum = [0]
        for b in schedule:
            cum.append(cum[-1] + b)
        self._cum = cum

    @classmethod
    def constant(cls, duration_s, rate_bps, **kw):
        duration_s = int(duration_s)
        total = round(duration_s * rate_bps / 8.0)
        base = total // duration_s
        schedule = [base] * duration_s
        schedule[-1] += total - base * duration_s
        return cls(schedule, **kw)

    @classmethod
    def vbr(cls, duration_s, rate_bps, amplitude, period_s=30.0, **kw):
        """Sinusoidal variable bitrate around rate_bps; amplitude in [0, 1)."""
        duration_s = int(duration_s)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("vbr amplitude must be in [0, 1)")
        total = round(duration_s * rate_bps / 8.0)
        base = total / duration_s
        schedule = [
            max(0, round(base * (1.0 + amplitude * math.sin(2.0 * math.pi * i / period_s))))
            for i in range(duration_s)
        ]
        schedule[-1] += total - sum(schedule)  # keep the total exact
        if schedule[-1] < 0:
            raise ValueError(
                "vbr: the last-second correction that keeps the total at %d B came out "
                "negative by %d B; use a longer clip, whole periods or a smaller amplitude"
                % (total, -schedule[-1])
            )
        return cls(schedule, **kw)

    def cum_bytes(self, t):
        """Media bytes in [0, t) of media time."""
        if t <= 0:
            return 0.0
        if t >= self.duration_s:
            return float(self.total_bytes)
        i = int(t)
        return self._cum[i] + (t - i) * self.schedule[i]

    def bytes_between(self, t0, t1):
        return self.cum_bytes(t1) - self.cum_bytes(t0)

    def media_time(self, nbytes):
        """Inverse of cum_bytes: media seconds covered by the first nbytes."""
        if nbytes <= 0:
            return 0.0
        if nbytes >= self.total_bytes:
            return float(self.duration_s)
        i = bisect_right(self._cum, nbytes) - 1
        rem = nbytes - self._cum[i]
        if self.schedule[i] == 0:
            return float(i)
        return i + rem / self.schedule[i]


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


def dash_pick_quality(ladder, bw_estimate_bps, safety):
    """Index of the highest level with bandwidth <= safety * estimate.

    Falls back to the lowest-bandwidth level when none qualifies.  The very
    first request of a session does not come through here; players start on
    the playlist's default (first) entry.
    """
    if not ladder:
        raise ValueError("empty quality ladder")
    budget = safety * bw_estimate_bps
    best = None
    for i, level in enumerate(ladder):
        if level.bandwidth_bps <= budget:
            if best is None or level.bandwidth_bps > ladder[best].bandwidth_bps:
                best = i
    if best is not None:
        return best
    lowest = 0
    for i, level in enumerate(ladder):
        if level.bandwidth_bps < ladder[lowest].bandwidth_bps:
            lowest = i
    return lowest


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


class StreamingSession:
    """Drives one playback session on a discrete-event kernel, one event per full tick."""

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
        strict_accounting=True,
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
        self.sample_interval = sample_interval
        # buffer samples fall on every n-th tick, counted, not on float time
        self._sample_every = max(1, round(sample_interval / tick_s))
        self.strict = strict_accounting
        self.watched_end = watched_fraction * video.duration_s
        self.max_sim_time = max_sim_time or (3.0 * video.duration_s + 900.0)

        self.phase = FAST_START
        self.playing = False
        self.playhead = 0.0
        self.received = 0
        self.media_pos = 0          # useful (non-duplicate) bytes delivered
        self.consumed = 0.0
        self.wasted = 0.0
        self.stalled = False
        self.conn = None
        self.reading = True         # ON_OFF burst state; reading during fast start
        self._dup_remaining = 0
        self._burst_next = None
        self._server_left = 0       # undelivered bytes for the bursty server
        self._ticks = 0             # ticks played, quiet ones included
        self._next_sample = 1       # the tick that takes the next buffer sample
        self._last_data_t = 0.0
        self.metrics = SessionMetrics(kind=technique.kind)

        if technique.kind == DASH:
            self._dash_init()
        else:
            self.fast_start_target = int(round(video.cum_bytes(technique.fast_start_s)))
        cap = technique.buffer_cap
        if cap is not None:
            # the store is full once free space is under one tick of playback:
            # capped delivery refills what playback drains and never gets closer
            self._store_slack = int(max(video.schedule) * tick_s) + 2
            if technique.kind != DASH and min(self.fast_start_target, video.total_bytes) > cap:
                raise ValueError(
                    "fast start needs %d B buffered before playback begins, but "
                    "buffer_cap holds at most %d B"
                    % (min(self.fast_start_target, video.total_bytes), cap)
                )

    # -- lifecycle ---------------------------------------------------------

    def run(self):
        self._start()
        self.kernel.schedule_in(self.tick_s, self._tick)
        self.kernel.run_until(self.max_sim_time)
        if self.phase != DRAINED:
            raise DeadlockError(self._unfinished_cause())
        return self.metrics

    def _unfinished_cause(self):
        """Why playback did not finish by the horizon: too slow, or stuck."""
        now = self.kernel.now
        if not self.playing:
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
        delivered = self.received if self.technique.kind == DASH else self.media_pos
        return "%s: delivered %d of %d B by t=%.1f (phase=%s playhead=%.2f conn=%s)" % (
            cause, delivered, self.video.total_bytes, now, self.phase, self.playhead,
            "open" if self._conn_open() else "closed",
        )

    def _start(self):
        t = self.technique
        if t.kind == DASH:
            self.conn = self.transport.open(self.recv_capacity, self.probe_interval)
            return
        self.conn = self.transport.open(self.recv_capacity, self.probe_interval)
        self._register_conn(self.conn)
        if t.kind == THROTTLE and t.burst_size is not None:
            # bursty server: only the fast-start chunk is written up front
            self.conn.enqueue(min(self.fast_start_target, self.video.total_bytes))
            self._server_left = self.video.total_bytes - min(
                self.fast_start_target, self.video.total_bytes
            )
        else:
            self.conn.enqueue(self.video.total_bytes)

    def _register_conn(self, conn):
        self.metrics.connection_bytes.setdefault(conn.id, 0)

    def _conn_open(self):
        return self.conn is not None and self.conn.state == "OPEN"

    # -- per-tick pipeline -------------------------------------------------

    def _tick(self):
        now = self.kernel.now
        dt = self.tick_s
        if self.conn is not None:
            limit = self._delivery_limit(self.media_pos, self.consumed, self._dup_remaining)
            for rec in self.conn.advance(dt, limit=limit):
                if rec.kind == DATA:
                    self._on_data(rec.payload, rec.conn_id, now, self._media_after(rec.payload))
        if self.phase == FAST_START:
            self._maybe_finish_fast_start()
        self._playback(dt)
        if self.phase == DRAINED:
            return
        self._client_step(dt)
        self._server_step()
        self._ticks += 1
        if self._ticks >= self._next_sample:
            self._sample(self._ticks, now, self.playhead, self.consumed, self._delivered_media())
        if self.strict:
            self._check_accounting()
        self.kernel.schedule(self._play_quiet(now), self._tick)

    def _play_quiet(self, now):
        """Play the ticks after the full tick at `now` that change little.

        Returns the time of the next full tick.  A run of ticks that moves no
        byte and reads nothing is played as one stretch (_stretch), every
        other tick one at a time (_flow).  The first tick that could do more
        is left to the kernel: one whose delivery is cut by the queue or the
        store limit or blocked on a zero window, that finishes a DASH segment
        or the fast start, runs playback dry or ends a stall or the watch, on
        which the client acts, or the bursty server's next burst.  So is the
        tick at the horizon: the kernel runs it and never runs the ones after
        it.
        """
        dt = self.tick_s
        stop_t = min(self._next_burst(), self.max_sim_time)
        conn = self.conn
        conn_t = conn.next_action(dt, now)
        reads, acts = self._client_rule()
        t = now
        while t + dt < stop_t:
            if t + dt < conn_t and (reads is None or not conn.recv_occupancy):
                t_played = self._stretch(t, min(stop_t, conn_t), acts)
                if t_played != t:
                    t = t_played
                    continue
            t, conn_t, stopped = self._flow(t, stop_t, conn_t, reads, acts)
            if stopped:
                break
        if t != now and self.strict:
            # Inside a span the drift term gains nothing (received and
            # media_pos plus wasted grow by the same bytes), consumed never
            # exceeds media_pos, and every delivery stays under the store
            # limit, so the check at its end implies the check on every tick
            # inside it.
            self._check_accounting()
        return t + dt

    def _stretch(self, t, bound, acts):
        """Play the ticks after `t` that move no byte and read nothing, in bulk.

        They change only the clock, the playhead, the consumed bytes and the
        samples, and end before `bound`.  Returns the time of the last tick
        played: `t` when the first tick is left to _flow.

        The clock and the playhead are built with accumulate, which makes the
        loop's own float additions.  While no byte moves, every rule that
        stops a tick is monotone in the playhead: float subtraction and
        addition are monotone, and cum_bytes never falls.  Most rules stop
        every tick once they stop one, so bisection finds the first tick that
        stops.  Two rules stop fewer ticks as the playhead grows: a burst's
        high watermark and a full store.  The first tick is tested on its
        own, so bisection runs only once both are false, and they stay false
        for every tick after it.  (A full tick that reopens a capped store
        may leave it full: with a reopen headroom under the store slack, the
        store counts as full again on the very next tick.)  The tick that
        stops, or the one after a stretch cut at _STRETCH ticks, is left to
        the caller.
        """
        dt = self.tick_s
        moving = self.playing and not self.stalled
        capped = self.technique.buffer_cap is not None
        runs_dry, watch_done = _runs_dry, self._watch_done
        watched_end = self.watched_end
        media_pos, playhead, consumed = self.media_pos, self.playhead, self.consumed
        delivered = self._delivered_media()
        ticks = self._ticks
        # build no more ticks than the bound, the delivered media and the
        # watch leave room for, give or take one
        span = bound - t
        if moving:
            span = min(span, delivered - playhead, watched_end - playhead)
        k = _STRETCH if span >= _STRETCH * dt else max(1, int(span / dt) + 2)
        ts = list(accumulate(repeat(dt, k), initial=t))
        phs = list(accumulate(repeat(dt, k), initial=playhead)) if moving else None

        def stops(j):
            """Whether tick j (to ts[j], playhead to phs[j]) needs the per-tick code."""
            if ts[j] >= bound:
                return True
            ahead, used = playhead, consumed
            if moving:
                # a step the end of the watch cuts short (watched_end - ph <
                # dt) has ph + dt >= watched_end, so watch_done stops that tick
                ph, ahead = phs[j - 1], phs[j]
                if runs_dry(delivered - ph, dt) or watch_done(ahead):
                    return True
                if capped:
                    used = self._consumed_at(ahead, media_pos)
            return acts is not None and acts(media_pos, delivered, ahead, used)

        if stops(1):
            return t
        played = bisect_left(range(1, k + 1), True, key=stops)
        # samples by index: a sample tick j leaves the next at j + every
        consumed_at, sample = self._consumed_at, self._sample
        for j in range(self._next_sample - ticks, played + 1, self._sample_every):
            if moving:
                sample(ticks + j, ts[j], phs[j], consumed_at(phs[j], media_pos), delivered)
            else:
                sample(ticks + j, ts[j], playhead, consumed, delivered)
        self._ticks = ticks + played
        if moving:
            self.playhead = phs[played]
            self._sync_consumed()
        return ts[played]

    def _flow(self, t, stop_t, conn_t, reads, acts):
        """Play the ticks after `t` one at a time, the connection held in locals.

        A tick played here sends the sender's whole pacing allowance, or the
        free receive window (and advertises it zero, as advance() does), or
        paces zero bytes with window room; or it sends nothing.  Then the
        client reads what reads() says, and playback advances unless it is
        stalled or has not begun.  Each tick uses Connection.pace's float
        expressions (transport.paced) and the rules of the full tick, tested
        in its order.  No rule here is bisected: with bytes flowing, the
        ON_OFF watermark rules are not monotone.

        The run ends before a tick _stretch can play and at the first tick
        that needs the kernel; it always plays or stops the first tick.  The
        connection is written back where the window closes or reopens (the
        Connection changes the window state and asks next_action again) and
        at the run's end; the byte books and the DATA records (_book_run)
        there, before a zero-window advertisement and before each buffer
        sample.  Returns (t, conn_t, stopped): the last tick played, the
        connection's next action, and whether the next tick is the kernel's.
        """
        dt = self.tick_s
        conn, video = self.conn, self.video
        dash = self.technique.kind == DASH
        capped = self.technique.buffer_cap is not None
        moving = self.playing and not self.stalled
        # Bytes may arrive only while the client reads them and playback is
        # not stalled: a full tick leaves a stall in place only with under
        # 1e-9 s of media to play, and no tick ends it unless bytes arrive.
        flows = reads is not None and not self.stalled
        # DASH books media per finished segment, and its send queue is the
        # outstanding segment, so a tick that leaves queue to spare finishes
        # no segment and the fast start neither
        starting = self.phase == FAST_START and not dash
        draining = reads is _drain
        runs_dry, watch_done = _runs_dry, self._watch_done
        watched_end = self.watched_end
        credit, queue, occ = conn._rate_frac, conn.send_queue, conn.recv_occupancy
        resume, capacity = conn._resume_at, conn.recv_capacity
        byte_rate = conn._rate_bps() / 8.0
        zero = conn.window_state == ZERO_WINDOW
        media_pos, dup = self.media_pos, self._dup_remaining
        playhead, consumed = self.playhead, self.consumed
        delivered = self._delivered_media()
        # media_time() of media_pos as a forward cursor, since media_pos
        # never falls: cum[i] <= media_pos < cum[i + 1] while it is under total
        cum, schedule, total = video._cum, video.schedule, video.total_bytes
        i = bisect_right(cum, media_pos) - 1
        ticks, next_sample = self._ticks, self._next_sample
        times, sizes = [], []
        stopped = True
        while True:
            t_next = t + dt
            n = 0
            fills = False
            new_pos, used = media_pos, consumed
            if t_next >= conn_t:
                if not flows:
                    break
                # min() spelled out in this loop: a builtin call costs more
                # than the rest of a line
                room = capacity - occ
                if queue < room:
                    room = queue
                if capped:
                    limit = self._delivery_limit(media_pos, consumed, dup)
                    if limit < room:
                        room = limit
                n, paced_credit = paced(t_next, dt, resume, byte_rate, credit, queue, room)
                if n == room:
                    # cut short: only a send that just fills the window plays
                    if not 0 < n == capacity - occ < queue or (capped and n >= limit):
                        break
                    fills = True
                if n and not dash:
                    # as _media_after: the first dup bytes repeat held media
                    d = (n if n < dup else dup) if dup else 0
                    new_pos = media_pos + n - d
                    if starting and self._fast_start_done(new_pos):
                        break
                    if new_pos >= total:
                        delivered = float(video.duration_s)
                    elif new_pos != media_pos:
                        while cum[i + 1] <= new_pos:
                            i += 1
                        delivered = i + (new_pos - cum[i]) / schedule[i]
            ahead = playhead
            if moving:
                step = watched_end - playhead
                if step > dt:
                    step = dt
                if runs_dry(delivered - playhead, step):
                    break
                ahead = playhead + step
                if watch_done(ahead):
                    break
                if capped:
                    used = self._consumed_at(ahead, new_pos)
            if acts is not None and acts(new_pos, delivered, ahead, used):
                break
            # the tick plays
            stopped = False
            if t_next >= conn_t:
                credit = paced_credit
            if n:
                queue -= n
                occ += n
                times.append(t_next)
                sizes.append(n)
                if not dash:
                    dup -= d
                    media_pos = new_pos
            playhead, consumed = ahead, used
            turns = fills  # the window closes or reopens on this tick
            if fills:
                # as advance(): the DATA record, then the zero-window ad
                self._book_run(times, sizes, media_pos)
                times, sizes = [], []
                conn.close_window(t_next)
                zero = True
            if reads is not None and occ:
                # as Connection.read
                got = occ if draining else int(min(reads(playhead), occ))
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
                # the sample reads the books
                if times:
                    self._book_run(times, sizes, media_pos)
                    times, sizes = [], []
                if moving:
                    consumed = self._consumed_at(playhead, media_pos)
                self._sample(ticks, t, playhead, consumed, delivered)
                next_sample = self._next_sample
            if t + dt >= stop_t or t + dt < conn_t and (reads is None or not occ):
                break
            stopped = True
        conn._rate_frac, conn.send_queue, conn.recv_occupancy = credit, queue, occ
        if times:
            self._book_run(times, sizes, media_pos)
        self.playhead, self._ticks = playhead, ticks
        if moving:
            self._sync_consumed()
        return t, conn_t, stopped

    def _book_run(self, times, sizes, media_pos):
        """Emit and book the DATA a span sent at `times`; media_pos is the one after them."""
        conn = self.conn
        self.transport.emit_run(DOWN, DATA, conn.id, times, sizes)
        sent = sum(sizes)
        conn.delivered_total += sent
        self._on_data(sent, conn.id, times[-1], media_pos)

    def _client_rule(self):
        """What the client does on a tick played inside a span.

        Returns (reads, acts).  reads(playhead) is the most the client reads
        from the socket once that tick's playback is done, or reads is None
        when it reads nothing.  acts(pos, got, ph, used) says that the client
        does more than that read on a tick that ends with media_pos `pos`,
        `got` media seconds delivered, the playhead at `ph` and `used`
        consumed bytes; acts is None when the client never does more.
        """
        t = self.technique
        drain = _drain if self._conn_open() else None
        if t.kind == DASH:
            if self._outstanding is not None or self._seg_requested >= self._n_segments:
                return drain, None
            return drain, lambda pos, got, ph, used: self._dash_buffer_short(got - ph)
        if self.phase == FAST_START:
            return drain, None
        if t.kind == ENCODING_RATE:
            return self._encoding_read, None
        if t.kind == ON_OFF:
            if self.reading:
                return _drain, lambda pos, got, ph, used: self._burst_ends(pos, got - ph)
            return None, lambda pos, got, ph, used: self._below_low_watermark(got - ph)
        # THROTTLE and FAST_CACHING read whatever arrives while connected
        if t.buffer_cap is None:
            return drain, None
        if drain is not None:
            return drain, lambda pos, got, ph, used: self._store_full(pos, pos - used)
        return None, lambda pos, got, ph, used: self._store_reopens(pos - used)

    def _delivery_limit(self, media_pos, consumed, dup):
        """Most a tick may deliver into a capped store; None without a cap."""
        cap = self.technique.buffer_cap
        if cap is None:
            return None
        free = cap - (media_pos - consumed)
        return dup + max(0, int(free))

    def _on_data(self, nbytes, conn_id, now, media_pos):
        """Book nbytes that arrived on conn_id by `now`; media_pos is _media_after(nbytes)."""
        self.received += nbytes
        self.metrics.connection_bytes[conn_id] = (
            self.metrics.connection_bytes.get(conn_id, 0) + nbytes
        )
        self._last_data_t = now
        if self.technique.kind == DASH:
            self._dash_on_data(nbytes, now)
            return
        dup = min(self._dup_remaining, nbytes)
        self.media_pos = media_pos
        if dup:
            self._dup_remaining -= dup
            self.wasted += dup

    def _media_after(self, nbytes):
        """media_pos once nbytes arrive; the first _dup_remaining repeat held media."""
        return self.media_pos + nbytes - min(self._dup_remaining, nbytes)

    def _maybe_finish_fast_start(self):
        if self._fast_start_done(self.media_pos):
            self._steady()

    def _fast_start_done(self, media_pos):
        """Playback begins once this much media has arrived."""
        if self.technique.kind == DASH:
            return self._dash_delivered_media() >= min(
                self.technique.fast_start_s, self.video.duration_s
            )
        return media_pos >= min(self.fast_start_target, self.video.total_bytes)

    def _steady(self):
        t = self.technique
        self.phase = STEADY
        self.playing = True
        self.metrics.fast_start_end_t = self.kernel.now
        self.metrics.startup_s = self.kernel.now
        self.reading = False
        if t.kind == THROTTLE and self._conn_open():
            if t.burst_size is not None:
                self._burst_next = self.kernel.now
            else:
                self.conn.set_rate_cap(t.throttle_factor * self.video.avg_rate_bps)
        elif t.kind == ON_OFF and t.connection_mode == PER_BURST and self._conn_open():
            # the initial fill is a burst of its own; one connection per burst
            self.conn.close("RST")

    def _playback(self, dt):
        if not self.playing:
            return
        now = self.kernel.now
        avail_media = self._delivered_media() - self.playhead
        step = min(dt, self.watched_end - self.playhead)
        if self.stalled:
            if avail_media <= 1e-9:
                return
            self.stalled = False
            self.metrics.stalls[-1].end = now
        if _runs_dry(avail_media, step):
            # ran dry mid-tick: advance what we can, then freeze
            self.playhead += max(0.0, avail_media)
            self._sync_consumed()
            self.stalled = True
            self.metrics.stalls.append(Stall(start=now))
            return
        self.playhead += step
        self._sync_consumed()
        if self._watch_done(self.playhead):
            self._finalize()

    def _watch_done(self, playhead):
        return playhead >= self.watched_end - 1e-12

    def _delivered_media(self):
        """Media seconds from the start of the clip that have arrived."""
        if self.technique.kind == DASH:
            return self._dash_delivered_media()
        return self.video.media_time(self.media_pos)

    def _sync_consumed(self):
        self.consumed = self._consumed_at(self.playhead, self.media_pos)

    def _consumed_at(self, playhead, media_pos):
        if self.technique.kind == DASH:
            return self._dash_consumed_bytes(playhead)
        consumed = self.video.cum_bytes(playhead)
        return consumed if consumed < media_pos else float(media_pos)  # min(), without the call

    def _client_step(self, dt):
        t = self.technique
        if t.kind == DASH:
            self._dash_client()
            return
        if self.phase == FAST_START:
            if self._conn_open():
                self.conn.read(_BIG)
            return
        if t.kind in (THROTTLE, FAST_CACHING):
            if t.buffer_cap is not None:
                self._capped_client()
            if self._conn_open():
                self.conn.read(_BIG)
        elif t.kind == ENCODING_RATE:
            if self._conn_open() or (self.conn and self.conn.recv_occupancy):
                self.conn.read(self._encoding_read(self.playhead))
        elif t.kind == ON_OFF:
            self._on_off_client()

    def _encoding_read(self, playhead):
        """ENCODING_RATE: the client reads the bytes of the next tick of media."""
        return int(math.ceil(self.video.bytes_between(playhead, playhead + self.tick_s)))

    def _capped_client(self):
        buffered = self.media_pos - self.consumed
        if self._conn_open():
            if self._store_full(self.media_pos, buffered):
                self.conn.close("RST")
        elif self._store_reopens(buffered):
            self._reconnect_range()

    def _store_full(self, media_pos, buffered):
        """Capped store: the client resets the connection once this holds."""
        return (
            media_pos >= self.video.total_bytes
            or buffered >= self.technique.buffer_cap - self._store_slack
        )

    def _store_reopens(self, buffered):
        """Capped store: the closed connection reopens once this much has drained."""
        t = self.technique
        headroom = t.reopen_headroom or max(1, t.buffer_cap // 32)
        return self.media_pos < self.video.total_bytes and buffered <= t.buffer_cap - headroom

    def _reconnect_range(self):
        """New connection re-requesting from the start of the current key frame."""
        kf = self.video.keyframe_spacing
        dup = 0
        if self.technique.keyframe_waste and kf > 0:
            dup = self.media_pos - (self.media_pos // kf) * kf
        self._dup_remaining = dup
        self.conn = self.transport.open(self.recv_capacity, self.probe_interval)
        self._register_conn(self.conn)
        self.conn.enqueue(dup + (self.video.total_bytes - self.media_pos))

    def _on_off_client(self):
        t = self.technique
        buffered_media = self.video.media_time(self.media_pos) - self.playhead
        if self.reading:
            if self._burst_ends(self.media_pos, buffered_media):
                self.reading = False
                if t.connection_mode == PER_BURST and self._conn_open():
                    self.conn.close("RST")
            else:
                self.conn.read(_BIG)
        elif self._below_low_watermark(buffered_media):
            self.reading = True
            if not self._conn_open():
                self.conn = self.transport.open(self.recv_capacity, self.probe_interval)
                self._register_conn(self.conn)
                self.conn.enqueue(self.video.total_bytes - self.media_pos)
            self.conn.read(_BIG)

    def _burst_ends(self, media_pos, buffered_media):
        """ON_OFF: the client stops reading once the file is in or the high watermark reached."""
        return (
            media_pos >= self.video.total_bytes
            or buffered_media >= self.technique.high_watermark_s
        )

    def _below_low_watermark(self, buffered_media):
        """ON_OFF: the client resumes reading once buffered media falls this low."""
        return (
            self.media_pos < self.video.total_bytes
            and buffered_media <= self.technique.low_watermark_s
        )

    def _next_burst(self):
        """Time the bursty server writes its next burst; inf when it writes no more."""
        t = self.technique
        if (
            t.kind == THROTTLE
            and t.burst_size is not None
            and self.phase == STEADY
            and self._server_left > 0
            and self._conn_open()
        ):
            return self._burst_next
        return math.inf

    def _server_step(self):
        t = self.technique
        if self._next_burst() <= self.kernel.now:
            interval = t.burst_size * 8.0 / (t.throttle_factor * self.video.avg_rate_bps)
            while self._burst_next <= self.kernel.now and self._server_left > 0:
                n = min(t.burst_size, self._server_left)
                self.conn.enqueue(n)
                self._server_left -= n
                self._burst_next += interval

    # -- DASH specifics ----------------------------------------------------

    def _dash_init(self):
        t, v = self.technique, self.video
        if not v.ladder:
            raise ValueError("DASH needs a quality ladder on the video")
        seg = v.ladder[0].segment_s
        if any(abs(q.segment_s - seg) > 1e-9 for q in v.ladder):
            raise ValueError("all ladder levels must share one segment duration")
        self._seg_dur = seg
        self._n_segments = int(math.ceil(v.duration_s / seg))
        self._segments = []          # (media_start, media_len, nbytes)
        self._seg_requested = 0
        self._outstanding = None     # (bytes_left, total, t_request, level_idx)
        self._tputs = deque(maxlen=3)
        self._last_level = None

    def _dash_delivered_media(self):
        return sum(s[1] for s in self._segments)

    def _dash_consumed_bytes(self, playhead):
        total = 0.0
        for start, length, nbytes in self._segments:
            if playhead >= start + length:
                total += nbytes
            elif playhead > start:
                total += nbytes * (playhead - start) / length
            else:
                break
        return total

    def _dash_on_data(self, nbytes, now):
        if self._outstanding is None:
            return
        left, total, t_req, level = self._outstanding
        left -= nbytes
        if left > 0:
            self._outstanding = (left, total, t_req, level)
            return
        elapsed = max(now - t_req, self.tick_s)
        self._tputs.append(total * 8.0 / elapsed)
        start = self._seg_requested_media_start
        length = min(self._seg_dur, self.video.duration_s - start)
        self._segments.append((start, length, total))
        self.metrics.dash_quality_history.append(level)
        self._outstanding = None

    def _dash_client(self):
        if self._conn_open():
            self.conn.read(_BIG)
        if self._outstanding is not None or self._seg_requested >= self._n_segments:
            return
        if not self._dash_buffer_short(self._dash_delivered_media() - self.playhead):
            return
        if self._tputs:
            est = len(self._tputs) / sum(1.0 / x for x in self._tputs)
            level = dash_pick_quality(self.video.ladder, est, self.technique.dash_safety)
        else:
            level = 0  # playlist default entry before any throughput sample
        q = self.video.ladder[level]
        self._seg_requested_media_start = self._seg_requested * self._seg_dur
        length = min(self._seg_dur, self.video.duration_s - self._seg_requested_media_start)
        nbytes = int(round(q.bandwidth_bps * length / 8.0))
        self.conn.request()
        self.conn.enqueue(nbytes)
        self._outstanding = (nbytes, nbytes, self.kernel.now, level)
        self._seg_requested += 1
        if (
            self._last_level is not None
            and level > self._last_level
            and self.technique.dash_refetch_depth > 0
        ):
            self._dash_refetch(level)
        self._last_level = level

    def _dash_buffer_short(self, buffered_media):
        """DASH: the client requests the next segment while this holds."""
        return self.phase != STEADY or buffered_media < self.technique.dash_target_s

    def _dash_refetch(self, level):
        """Re-download recent unplayed segments after an upward quality switch."""
        q = self.video.ladder[level]
        depth = self.technique.dash_refetch_depth
        replaced = 0
        for i in range(len(self._segments) - 1, -1, -1):
            if replaced >= depth:
                break
            start, length, nbytes = self._segments[i]
            if start < self.playhead:
                break
            new_bytes = int(round(q.bandwidth_bps * length / 8.0))
            if self.technique.dash_replaced_counts_waste:
                # old copy is surplus; the new one is what gets played
                self.wasted += nbytes
                self._segments[i] = (start, length, new_bytes)
            else:
                # keep the old copy on the books; the refetch is the surplus
                self.wasted += new_bytes
            self.received += new_bytes
            replaced += 1

    # -- wrap-up -----------------------------------------------------------

    def _finalize(self):
        now = self.kernel.now
        self.phase = DRAINED
        self.playing = False
        if self.technique.kind == DASH:
            leftover = self.received - self.consumed - self.wasted
        else:
            leftover = self.media_pos - self.consumed
        self.wasted += max(0.0, leftover)
        if self._conn_open():
            mode = "FIN" if self.watched_end >= self.video.duration_s - 1e-9 else "RST"
            self.conn.close(mode)
        m = self.metrics
        m.duration_s = now
        m.end_t = now
        m.watched_s = self.playhead
        m.received_total = self.received
        m.consumed_bytes = self.consumed
        m.wasted_bytes = self.wasted
        m.delivery_end_t = self._last_data_t
        m.stall_total_s = sum(
            (s.end if s.end is not None else now) - s.start for s in m.stalls
        )
        m.buffer_series.append((now, 0.0, 0.0))

    def _sample(self, ticks, t, playhead, consumed, delivered):
        """Buffer sample of tick `ticks`, which ends at t.

        The playhead, the consumed bytes and the delivered media seconds are
        passed in, since spans hold them in locals; the other books are read.
        """
        if self.technique.kind == DASH:
            buf_bytes = self.received - consumed - self.wasted
        else:
            buf_bytes = self.media_pos - consumed
        self.metrics.buffer_series.append((t, buf_bytes, delivered - playhead))
        self._next_sample = ticks + self._sample_every

    def _check_accounting(self):
        if self.technique.kind == DASH:
            buffered = self.received - self.consumed - self.wasted
        else:
            buffered = self.media_pos - self.consumed
            drift = self.received - self.media_pos - self.wasted
            if abs(drift) > 1e-6:
                raise AssertionError("byte accounting drift: %r" % drift)
        if buffered < -1e-6:
            raise AssertionError("negative playback buffer: %r" % buffered)
        cap = self.technique.buffer_cap
        if cap is not None and buffered > cap + 1e-6:
            raise AssertionError("playback store exceeded its cap: %r > %r" % (buffered, cap))
