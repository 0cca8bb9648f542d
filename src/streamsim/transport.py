"""Flow-controlled delivery pipe between a video server and a mobile client.

Models exactly the mechanisms that shape a streaming packet trace: link
pacing, a finite receive buffer with zero-window advertisements and keepalive
probes, connection open/close records, and an rtt-delayed restart after the
receive window reopens.  There is no loss or congestion control; rate limits
come from the path bandwidth and an optional sender-side pacing cap.

Bytes move in integer quanta.  During continuous transfer the pipe coalesces
delivery into one DATA record per advance() call (the simulation tick, 10 ms
by default), which keeps traces compact while staying well under the 50 ms
gap used later for burst grouping.
"""

import csv
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, groupby, islice, repeat
from operator import itemgetter, le

DOWN = "down"  # server -> client
UP = "up"      # client -> server

DATA = "DATA"
ZERO_WINDOW_AD = "ZERO_WINDOW_AD"
ZERO_WINDOW_PROBE = "ZERO_WINDOW_PROBE"
OPEN = "OPEN"
CLOSE_FIN = "CLOSE_FIN"
CLOSE_RST = "CLOSE_RST"
REQUEST = "REQUEST"
CLOSE_KINDS = {"RST": CLOSE_RST, "FIN": CLOSE_FIN}

STATE_OPEN = "OPEN"
STATE_CLOSED = "CLOSED"

OPEN_WINDOW = "OPEN_WINDOW"
ZERO_WINDOW = "ZERO_WINDOW"

TIMELINE_HEADER = ["time_s", "direction", "bytes", "kind", "conn_id"]


@dataclass(slots=True)
class PacketRecord:
    time: float
    direction: str
    payload: int  # bytes; 0 for control records
    kind: str
    conn_id: int


class Timeline:
    """A packet timeline: `time` and `payload` as columns, one entry per
    record, and the direction, kind and connection once per run, a maximal
    stretch of records that share all three.  No run is empty, and no two
    neighbouring runs share all three values.

    Transport.emit_run adds a run a call (or extends the last one), and
    read_timeline_csv one a stretch of rows.  The classifier's views,
    group_bursts, audit and the CSV writer read runs(); the radio drives
    read the time column.  columns() gives all five as lists.  Read
    as a sequence (iteration, slicing, list(), ==), a Timeline is a list of
    PacketRecord built on the first read and kept until the next append()
    or pop(); indexing with an int builds that one record from the columns
    and its run.  The records are copies, and changing one changes no
    column.  The constructor takes five sequences, one entry per record,
    and raises ValueError if their lengths differ.
    """

    __slots__ = ("time", "payload", "_runs", "_rows")

    def __init__(self, time=(), direction=(), payload=(), kind=(), conn=()):
        lengths = tuple(map(len, (time, direction, payload, kind, conn)))
        if min(lengths) != max(lengths):
            raise ValueError("timeline columns differ in length: time %d, direction %d, "
                             "payload %d, kind %d, conn %d" % lengths)
        self.time, self.payload, self._runs, self._rows = list(time), list(payload), [], None
        end = 0
        for key, run in groupby(zip(direction, kind, conn)):
            end += len(list(run))
            self._runs.append((end, *key))  # (end, direction, kind, conn)

    @classmethod
    def of(cls, records):
        """`records` if a Timeline, else a Timeline of the PacketRecords in it."""
        if isinstance(records, cls):
            return records
        return cls(*zip(*((r.time, r.direction, r.payload, r.kind, r.conn_id) for r in records)))

    def runs(self):
        """(start, end, direction, kind, conn) of each run, in order: its
        records' times and payloads are time[start:end] and payload[start:end]."""
        start = 0
        for end, direction, kind, conn in self._runs:
            yield start, end, direction, kind, conn
            start = end

    def columns(self):
        """time, direction, payload, kind and conn, as five lists."""
        keys = chain.from_iterable(repeat(run[2:], run[1] - run[0]) for run in self.runs())
        direction, kind, conn = map(list, zip(*keys)) if self._runs else ([], [], [])
        return self.time, direction, self.payload, kind, conn

    def rows(self):
        """The records, as a list built once and kept until the timeline changes."""
        if self._rows is None:
            time, payload, self._rows = self.time, self.payload, []
            for start, end, d, k, c in self.runs():
                self._rows += map(PacketRecord, time[start:end], repeat(d), payload[start:end],
                                  repeat(k), repeat(c))
        return self._rows

    def __len__(self):
        return len(self.time)

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.rows()[index]
        i = range(len(self.time))[index]  # an int in range, or IndexError
        _, direction, kind, conn = self._runs[bisect_right(self._runs, i, key=itemgetter(0))]
        return PacketRecord(self.time[i], direction, self.payload[i], kind, conn)

    def __eq__(self, other):
        if isinstance(other, Timeline):
            return (self.time, self.payload, self._runs) == (other.time, other.payload, other._runs)
        return self.rows() == other

    def _close_run(self, *key):
        """Make the payloads past the last run a run of `key` (direction,
        kind, conn), or join them to the last run if it has that key."""
        if self._runs and self._runs[-1][1:] == key:
            self._runs.pop()
        self._runs.append((len(self.payload), *key))
        self._rows = None

    def append(self, r):
        self.time.append(r.time)
        self.payload.append(r.payload)
        self._close_run(r.direction, r.kind, r.conn_id)

    def pop(self):
        end, direction, kind, conn = self._runs.pop()
        if end - 1 > (self._runs[-1][0] if self._runs else 0):
            self._runs.append((end - 1, direction, kind, conn))
        self._rows = None
        return PacketRecord(self.time.pop(), direction, self.payload.pop(), kind, conn)

    def copy(self):
        new = Timeline()
        new.time, new.payload, new._runs = self.time[:], self.payload[:], self._runs[:]
        return new


@dataclass(frozen=True)
class PathSpec:
    """Bottleneck description; jitter perturbs record timestamps only."""

    bandwidth_bps: float
    rtt_s: float = 0.05
    jitter: float = 0.0

    def __post_init__(self):
        if not 0 < self.bandwidth_bps < math.inf:
            raise ValueError("bandwidth_bps must be positive and finite, not %r" % self.bandwidth_bps)
        if not 0 <= self.rtt_s < math.inf:
            raise ValueError("rtt_s must be >= 0 and finite, not %r" % self.rtt_s)
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")


def paced(now, dt, resume_at, byte_rate, credit, queue, room):
    """Pacing of the tick ending at `now`: (bytes sent, pacing credit after it).

    The sender moves data only after resume_at, at byte_rate bytes a second
    plus the sub-byte credit carried from earlier ticks, and never more than
    `room` (the queue, the free receive space and any limit, whichever is
    least).  The credit carries over only when the allowance is what cut the
    bytes.  Connection.advance paces with it.  The session's planner
    (StreamingSession._chunk) repeats its float operations over a run of
    ticks, held to the same bytes by an every-tick test.
    """
    start = now - dt
    eligible = now - (resume_at if resume_at > start else start)  # max(), without the call
    if eligible <= 0 or queue <= 0:
        return 0, credit
    allowance = byte_rate * eligible + credit
    n = int(allowance)
    if n <= room:
        return n, allowance - n
    # blocked by buffer/queue/limit: no pacing credit carries over
    return room, 0.0


class Transport:
    """Factory for connections over one path; owns the shared packet timeline (a Timeline)."""

    def __init__(self, path, kernel, seed=0):
        self.path = path
        self.kernel = kernel
        self.records = Timeline()
        self._next_id = 1
        self._rng = random.Random(seed)
        self._last_emit = 0.0       # last perturbed timestamp on the timeline
        self._last_nominal = 0.0    # last unperturbed timestamp

    def open(self, recv_capacity, probe_interval=5.0):
        if recv_capacity <= 0:
            raise ValueError("recv_capacity must be positive")
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        conn = Connection(self, self._next_id, recv_capacity, probe_interval)
        self._next_id += 1
        self.emit(self.kernel.now, UP, 0, OPEN, conn.id)
        conn.request()
        return conn

    def emit(self, time, direction, payload, kind, conn_id):
        self.emit_run(direction, kind, conn_id, (time,), (payload,))
        return PacketRecord(self.records.time[-1], direction, payload, kind, conn_id)

    def detached(self, time, direction, payload, kind, conn_id):
        """The record emit() would append, with the timeline and the jitter
        state left as they were: its jitter comes from a copy of the state."""
        state, nominal, last = self._rng.getstate(), self._last_nominal, self._last_emit
        record = self.emit(time, direction, payload, kind, conn_id)
        self.records.pop()
        self._rng.setstate(state)
        self._last_nominal, self._last_emit = nominal, last
        return record

    def emit_run(self, direction, kind, conn_id, times, payloads, ad=False):
        """emit() each (time, payload) pair in turn, with the same jitter draws;
        with `ad`, then a zero-window advertisement at the last time."""
        jitter = self.path.jitter
        nominal, last = self._last_nominal, self._last_emit
        if not len(times):
            return
        if ad:
            times = [*times, times[-1]]
        if not jitter and times[0] >= last and all(map(le, times, times[1:])):
            # no draw moves a time and none falls behind the one before it,
            # so every record keeps its time as it is
            stamps = times
            nominal = last = times[-1]
        else:
            draw = self._rng.random
            stamps = []
            append = stamps.append
            for time in times:
                if jitter > 0.0:
                    gap = time - nominal
                    gap = gap if gap > 0.0 else 0.0  # max(0.0, gap), without the call
                    nominal = time
                    # Random.uniform(-1.0, 1.0), without the call
                    time = time + (-1.0 + 2.0 * draw()) * jitter * gap
                else:
                    nominal = time
                # timeline must stay sorted for the radio models downstream
                if time < last:
                    time = last
                last = time
                append(time)
        self._last_nominal, self._last_emit = nominal, last
        tl = self.records
        tl.time += stamps  # with `ad`, the ad's time too
        tl.payload += payloads
        tl._close_run(direction, kind, conn_id)
        if ad:
            tl.payload.append(0)
            tl._close_run(UP, ZERO_WINDOW_AD, conn_id)


class Connection:
    """One server->client transfer with receive-window flow control."""

    def __init__(self, transport, conn_id, recv_capacity, probe_interval):
        self.transport = transport
        self.id = conn_id
        self.state = STATE_OPEN
        self.send_queue = 0              # bytes waiting at the server
        self.send_rate_cap = None        # bps, None = path speed
        self.recv_capacity = int(recv_capacity)
        self.recv_occupancy = 0
        self.window_state = OPEN_WINDOW
        self.probe_interval = probe_interval
        self.delivered_total = 0
        self._resume_at = 0.0            # sender may not transmit before this
        self._next_probe = None
        self._rate_frac = 0.0            # sub-byte pacing carryover

    # -- server side -------------------------------------------------------

    def enqueue(self, nbytes):
        """Queue nbytes at the server."""
        if self.state != STATE_OPEN:
            raise ValueError("enqueue on closed connection %d" % self.id)
        if nbytes < 0:
            raise ValueError("cannot enqueue negative bytes")
        self.send_queue += int(nbytes)
        return self.send_queue

    def set_rate_cap(self, rate_cap):
        if rate_cap is not None and rate_cap < 0:
            raise ValueError("rate cap must be >= 0 or None")
        self.send_rate_cap = rate_cap
        self._rate_frac = 0.0

    # -- client side -------------------------------------------------------

    def request(self):
        """Client asks for (more) content; server reacts one rtt later."""
        now = self.transport.kernel.now
        self.transport.emit(now, UP, 0, REQUEST, self.id)
        self._resume_at = max(self._resume_at, now + self.transport.path.rtt_s)

    def read(self, max_bytes, now=None):
        """Drain up to max_bytes from the receive buffer; returns bytes read.

        Freeing space in a zero-window state notifies the sender, which
        resumes one rtt after `now`, the end of the reading tick (by default
        the kernel's time).
        """
        n = int(min(max_bytes, self.recv_occupancy))
        if n <= 0:
            return 0
        self.recv_occupancy -= n
        if self.window_state == ZERO_WINDOW:
            self.reopen_window(now)
        return n

    def reopen_window(self, now=None):
        """The client freed space in a zero window by `now`: the sender resumes one rtt later."""
        self.window_state = OPEN_WINDOW
        self._next_probe = None
        if self.state == STATE_OPEN:
            if now is None:
                now = self.transport.kernel.now
            self._resume_at = max(self._resume_at, now + self.transport.path.rtt_s)

    # -- pipe --------------------------------------------------------------

    def advance(self, dt, limit=None):
        """Move bytes for the tick ending now; returns records emitted.

        Delivery this tick is min(send_queue, pacing allowance, free buffer
        space, limit), paced by paced().  While the sender is blocked on a
        zero window it emits probe/advertisement pairs every probe_interval
        instead.
        """
        if dt <= 0:
            raise ValueError("advance needs dt > 0")
        if self.state != STATE_OPEN:
            return []
        out = []
        now = self.transport.kernel.now
        room = min(self.send_queue, self.recv_capacity - self.recv_occupancy)
        if limit is not None:
            room = min(room, int(limit))
        n, self._rate_frac = paced(
            now, dt, self._resume_at, self._rate_bps() / 8.0, self._rate_frac, self.send_queue, room
        )
        if n > 0:
            self.send_queue -= n
            self.recv_occupancy += n
            self.delivered_total += n
            out.append(self.transport.emit(now, DOWN, n, DATA, self.id))
        if self.recv_occupancy >= self.recv_capacity and self.window_state == OPEN_WINDOW:
            self.close_window(now)
            out.append(self.transport.emit(now, UP, 0, ZERO_WINDOW_AD, self.id))
        if (
            self.window_state == ZERO_WINDOW
            and self.send_queue > 0
            and self._next_probe is not None
        ):
            while self._next_probe <= now:
                out.append(
                    self.transport.emit(self._next_probe, DOWN, 0, ZERO_WINDOW_PROBE, self.id)
                )
                out.append(
                    self.transport.emit(self._next_probe, UP, 0, ZERO_WINDOW_AD, self.id)
                )
                self._next_probe += self.probe_interval
        return out

    def plan(self, ts, dt, wants, left, stalled=False):
        """What advance(dt), read() and the window's close and reopen do on the
        ticks ending at ts[1:] (ts[0] is now), the client reading wants[i - 1]
        bytes (or, with no wants, all it holds) after tick i, leaving the
        connection as it is.  Stops before a tick that sends into a zero
        window, sends while `stalled` or sends `left` bytes or more (the
        queue, or what ends the caller's run), and after a fill the client
        leaves shut.  Returns, for the ticks played, their sizes, the times
        and sizes of their DATA records, the record counts at window fills,
        and (credit, occupancy, resume time, last fill, last reopen) after.
        """
        rtt, capacity, byte_rate = self.transport.path.rtt_s, self.recv_capacity, self._rate_bps() / 8.0
        occ, credit, resume = self.recv_occupancy, self._rate_frac, self._resume_at
        zero = self.window_state == ZERO_WINDOW
        action = self.next_action(dt, ts[0])
        read_by = list(accumulate(wants, initial=0)) if wants else None
        sizes, stamps, payloads, fills = [], [], [], []
        closed = reopened = None
        j, last = 1, len(ts) - 1
        while j <= last:
            now = ts[j]
            if now < action and not zero:
                # the sender waits for its resume time and the client reads
                end = bisect_left(ts, action, j, last + 1)
                sizes += repeat(0, end - j)
                if occ:
                    occ = max(0, occ - (read_by[end - 1] - read_by[j - 1])) if wants else 0
                j = end
                continue
            n = 0
            fill = False
            if now >= action:
                if zero or stalled:
                    break
                n, after = paced(now, dt, resume, byte_rate, credit, left, capacity - occ)
                if n >= left:
                    break
                credit, left, fill, occ = after, left - n, n == capacity - occ, occ + n
            sizes.append(n)
            if n:
                stamps.append(now)
                payloads.append(n)
            if fill:
                fills.append(len(stamps))
                closed, zero = now, True
            got = min(wants[j - 1], occ) if wants else occ
            if got > 0:
                occ -= got
                if zero:
                    zero, reopened = False, now
                    action = resume = max(resume, now + rtt)
            j += 1
            if fill and zero:
                break  # the window stays shut: probes are advance()'s
        return sizes, stamps, payloads, fills, (credit, occ, resume, closed, reopened)

    def close_window(self, now):
        """The receive buffer filled on the tick ending at `now`: the window is zero.

        The sender probes one probe_interval later.  The caller emits the
        zero-window advertisement.
        """
        self.window_state = ZERO_WINDOW
        self._next_probe = now + self.probe_interval

    def next_action(self, dt, now=None):
        """Earliest tick end after `now` at which advance(dt) may change this connection.

        Until then advance() is a no-op for as long as nobody reads, enqueues
        or requests, so a caller may play the ticks in between without it.
        With bytes queued and room to receive them the sender moves data from
        the first tick ending after the resume time; blocked on a zero window
        it only probes.  Returns inf when it cannot act on its own.  `now`
        defaults to the kernel's time.
        """
        if self.state != STATE_OPEN or self.send_queue == 0:
            return math.inf
        # advance() sends from the first tick ending after _resume_at; a tick
        # ending exactly at it paces zero bytes and only keeps the credit
        if self.recv_occupancy < self.recv_capacity:
            return self._resume_at
        if now is None:
            now = self.transport.kernel.now
        # blocked on a zero window: a tick zeroes the pacing credit, and is a
        # no-op only once the credit is zero and every tick's allowance is at
        # least one byte (a first tick after the resume time may be partial,
        # and two bytes a tick leave room for float error in its length)
        credit_moves = (
            self._rate_frac != 0.0
            or self._resume_at >= now
            or self._rate_bps() / 8.0 * dt < 2.0
        )
        if credit_moves:
            return min(self._next_probe, self._resume_at)
        return self._next_probe

    def _rate_bps(self):
        rate = self.transport.path.bandwidth_bps
        if self.send_rate_cap is not None:
            rate = min(rate, self.send_rate_cap)
        return rate

    def close(self, mode="RST"):
        """Tear down; undelivered server bytes are dropped.  Idempotent it is not."""
        if self.state == STATE_CLOSED:
            raise ValueError("connection %d closed twice" % self.id)
        if mode not in CLOSE_KINDS:
            raise ValueError("close mode must be RST or FIN")
        self.state = STATE_CLOSED
        self.send_queue = 0
        self._next_probe = None
        return self.transport.emit(self.transport.kernel.now, UP, 0, CLOSE_KINDS[mode], self.id)


OUT_OF_ORDER = "packet timeline must be sorted by time"


def check_step(before, t):
    """The time-order rule for a record at `t` after one at `before`, for a
    step that is not `t >= before` (a NaN fails that too): ValueError if
    either time is not finite, `t` first, or `t` steps back by more than
    1e-12.  A smaller step back is float noise and passes."""
    check_ends(t, before)
    if t < before - 1e-12:
        raise ValueError(OUT_OF_ORDER)


def check_ends(*times):
    """ValueError for the first of `times` that is not finite.  Of a timeline
    whose every step kept check_step()'s rule, in time order with no NaN,
    the first and last time bound every other."""
    for t in times:
        if not math.isfinite(t):
            raise ValueError("packet timeline time %r is not finite" % t)


def check_time_order(times):
    """Whether a timeline's times never step back; ValueError for a time that
    is not finite or steps back by more than 1e-12 (check_step).  Smaller
    steps back are float noise and pass (the result is then False).  The
    radio drives and the trace estimators share this rule, so both reject
    the same timelines."""
    ordered = times == sorted(times)
    # sorting and list equality pass a NaN by; a sum does not, nor an inf
    if ordered and math.isfinite(sum(times)):
        return True
    for before, t in zip(times, islice(times, 1, None)):
        if not t >= before:
            check_step(before, t)
    check_ends(times[0], times[-1])
    return ordered


@lru_cache(maxsize=64)
def _row_field(value):
    """`value` as csv.writer writes it among other fields (quoted, its quotes
    doubled, if it holds a comma, a quote or a line break), for a % format."""
    value = str(value).replace("%", "%%")
    return '"%s"' % value.replace('"', '""') if any(c in value for c in ',"\r\n') else value


def write_rows(fh, rows):
    """Write rows (non-empty strings) in blocks of 1,024, holding no full row list."""
    rows = iter(rows)
    while block := "".join(islice(rows, 1024)):
        fh.write(block)


def write_timeline_csv(records, path):
    """The rows csv.writer writes, the time with six decimals, streamed: each
    run's row format is built once, and one % fills the formats of about
    1,024 rows with their (time, payload) pairs."""
    timeline = Timeline.of(records)
    time, payload = timeline.time, timeline.payload
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TIMELINE_HEADER) + "\r\n")
        formats, first = [], 0
        for start, end, direction, kind, conn in timeline.runs():
            row = "%%.6f,%s,%%d,%s,%d\r\n" % (_row_field(direction), _row_field(kind), conn)
            for i in range(start, end, 1024):
                j = min(i + 1024, end)
                formats.append(row * (j - i))
                if j - first >= 1024 or j == len(time):
                    pairs = chain.from_iterable(zip(time[first:j], payload[first:j]))
                    fh.write("".join(formats) % tuple(pairs))
                    formats, first = [], j


def read_timeline_csv(path):
    """The Timeline of a timeline CSV, read column by column and a run a stretch
    of rows; a malformed row, a time that is not finite or a negative byte
    count is a ValueError that names its line."""
    timeline = Timeline()
    time, payload = timeline.time, timeline.payload
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None:
            raise ValueError("%s: empty file, no timeline header" % path)
        if header != TIMELINE_HEADER:
            raise ValueError("%s: unexpected timeline header: %s" % (path, header))
        d = k = c = run = None  # the run's direction, kind and conn_id as read
        try:
            for row in rd:
                t, direction, nbytes, kind, conn_id = row
                stamp, n = float(t), int(nbytes)
                if not math.isfinite(stamp):
                    raise ValueError("time %r is not finite" % t)
                if n < 0:
                    raise ValueError("byte count %r is negative" % nbytes)
                if conn_id != c or kind != k or direction != d:
                    if run is not None:
                        timeline._close_run(*run)  # joins "1" after "01"
                    d, k, c, run = direction, kind, conn_id, (direction, kind, int(conn_id))
                time.append(stamp)
                payload.append(n)
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, rd.line_num, exc)) from None
    if run is not None:
        timeline._close_run(*run)
    return timeline
