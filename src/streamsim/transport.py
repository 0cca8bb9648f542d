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

import copy
import csv
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, groupby, islice, repeat
from operator import add, itemgetter, le, mul, sub

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

    Transport.emit_run adds a call's runs (the first may extend the last
    one), and read_timeline_csv one a stretch of rows.  The classifier's views,
    group_bursts, audit and the CSV writer read runs(); the radio drives
    read the time column.  Read as a sequence (iteration, slicing, list(),
    ==), a Timeline is a list of PacketRecord built on the first read and
    kept until the next append(); indexing with an int builds that one
    record from the columns and its run.  The records are copies, and
    changing one changes no column.  The constructor takes five sequences,
    one entry per record, and raises ValueError if their lengths differ.

    The columns change only through append() and Transport.emit_run (and
    read_timeline_csv while it builds the timeline).  The record list
    and the trace analysis's view (`_view`, its DATA times, byte prefix
    sums and run tallies, built by the first reader that needs it) are
    kept on that understanding and dropped by each of those changes, and
    so is a radio walk a sweep leaves (`_walk`); a copy() starts with none
    of them.  A sweep hands a shorter watch's copy a view sliced from the
    longest watch's (analysis.share_view), and the walk of the longest
    watch's packets up to its prefix (radio.share_walks), which its radio
    drive goes on from.
    """

    __slots__ = ("time", "payload", "_runs", "_rows", "_view", "_walk")

    def __init__(self, time=(), direction=(), payload=(), kind=(), conn=()):
        lengths = tuple(map(len, (time, direction, payload, kind, conn)))
        if min(lengths) != max(lengths):
            raise ValueError("timeline columns differ in length: time %d, direction %d, "
                             "payload %d, kind %d, conn %d" % lengths)
        self.time, self.payload, self._runs = list(time), list(payload), []
        self._rows = self._view = self._walk = None
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
        self._close_runs([(len(self.payload), *key)])

    def _close_runs(self, runs):
        """Append runs, (end, direction, kind, conn) each, in order and with
        ends past the last run's: a run joins the one before it if it has its key."""
        own = self._runs
        for run in runs:
            if own and own[-1][1:] == run[1:]:
                own.pop()
            own.append(run)
        self._rows = self._view = self._walk = None

    def append(self, r):
        self.time.append(r.time)
        self.payload.append(r.payload)
        self._close_run(r.direction, r.kind, r.conn_id)

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
    bytes.  Connection.advance paces a tick with it, and Connection.plan
    prices a run's edge ticks with it and repeats its float operations over
    the rest, held to the same bytes by an every-tick test.
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


def check_connection(recv_capacity, probe_interval):
    """A ValueError that names the value unless a connection can keep both:
    a receive capacity of at least 1 byte, and a probe interval, each
    finite, the interval positive."""
    if not 1 <= recv_capacity < math.inf:
        raise ValueError("recv_capacity must be at least 1 byte and finite, not %r"
                         % recv_capacity)
    if not 0 < probe_interval < math.inf:
        raise ValueError("probe_interval must be positive and finite, not %r" % probe_interval)


# a connection's state after a planned run (Connection.plan, for
# Connection.settle); a None time is no window close or reopen
Pacing = namedtuple("Pacing", "credit occupancy resume closed reopened")


class Transport:
    """Factory for connections over one path; owns the shared packet timeline (a Timeline)."""

    def __init__(self, path, seed=0):
        self.path = path
        self.records = Timeline()
        self._next_id = 1
        self._rng = random.Random(seed)
        self._last_nominal = 0.0    # last unperturbed timestamp

    def open(self, now, recv_capacity, probe_interval):
        """Open a connection at `now`: its OPEN and REQUEST records."""
        check_connection(recv_capacity, probe_interval)
        conn = Connection(self, self._next_id, recv_capacity, probe_interval)
        self._next_id += 1
        self.emit(now, UP, 0, OPEN, conn.id)
        conn.request(now)
        return conn

    def emit(self, time, direction, payload, kind, conn_id):
        self.emit_run(direction, kind, conn_id, (time,), (payload,))
        return PacketRecord(self.records.time[-1], direction, payload, kind, conn_id)

    def copy(self):
        """A transport that goes on from this one's state with its own
        timeline and jitter draws: what it emits leaves this one as it is."""
        new = copy.copy(self)
        new.records = self.records.copy()
        new._rng = copy.copy(self._rng)
        return new

    def emit_run(self, direction, kind, conn_id, times, payloads, ads=()):
        """emit() each (time, payload) pair in turn, with the same jitter draws,
        and after the first c of them, for each c in `ads` (ascending, from
        1), a zero-window advertisement at the time of the c-th.  No time
        falls behind the last one on the timeline (0.0 if it is empty)."""
        if not len(times):
            return
        jitter, tl = self.path.jitter, self.records
        nominal, last = self._last_nominal, tl.time[-1] if tl.time else 0.0
        first, runs = len(tl.time), []
        if ads:
            # each ad goes after its records, at the time of the last of them
            all_times, all_payloads, done = [], [], 0
            for c in ads:
                all_times += times[done:c]
                all_times.append(times[c - 1])
                all_payloads += payloads[done:c]
                all_payloads.append(0)
                end = first + len(all_times)
                runs += ((end - 1, direction, kind, conn_id), (end, UP, ZERO_WINDOW_AD, conn_id))
                done = c
            times, payloads = all_times + list(times[done:]), all_payloads + list(payloads[done:])
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
        self._last_nominal = nominal
        tl.time += stamps  # the ads' times too
        tl.payload += payloads
        if not runs or runs[-1][0] < len(tl.payload):
            runs.append((len(tl.payload), direction, kind, conn_id))
        tl._close_runs(runs)


class Connection:
    """One server->client transfer with receive-window flow control."""

    def __init__(self, transport, conn_id, recv_capacity, probe_interval):
        self.transport = transport
        self.id = conn_id
        self.state = STATE_OPEN
        self.send_queue = 0              # bytes waiting at the server
        self.byte_rate = transport.path.bandwidth_bps / 8.0  # bytes a second: the path's, or a cap
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
        rate = self.transport.path.bandwidth_bps
        self.byte_rate = (rate if rate_cap is None else min(rate, rate_cap)) / 8.0
        self._rate_frac = 0.0

    # -- client side -------------------------------------------------------

    def request(self, now):
        """Client asks for (more) content at `now`; server reacts one rtt later."""
        self.transport.emit(now, UP, 0, REQUEST, self.id)
        self._resume_at = max(self._resume_at, now + self.transport.path.rtt_s)

    def read(self, max_bytes, now):
        """Drain up to max_bytes from the receive buffer; returns bytes read.

        Freeing space in a zero-window state notifies the sender, which
        resumes one rtt after `now`, the end of the reading tick.
        """
        n = int(min(max_bytes, self.recv_occupancy))
        if n <= 0:
            return 0
        self.recv_occupancy -= n
        if self.window_state == ZERO_WINDOW:
            self.reopen_window(now)
        return n

    def reopen_window(self, now):
        """The client freed space in a zero window by `now`: the sender resumes one rtt later."""
        self.window_state = OPEN_WINDOW
        self._next_probe = None
        if self.state == STATE_OPEN:
            self._resume_at = max(self._resume_at, now + self.transport.path.rtt_s)

    # -- pipe --------------------------------------------------------------

    def advance(self, now, dt, limit=None):
        """Move bytes for the tick of dt ending at `now`; returns records emitted.

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
        room = min(self.send_queue, self.recv_capacity - self.recv_occupancy)
        if limit is not None:
            room = min(room, int(limit))
        n, self._rate_frac = paced(
            now, dt, self._resume_at, self.byte_rate, self._rate_frac, self.send_queue, room
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

    def drains(self, dt):
        """Whether a run may be laid out with the client draining every tick:
        nothing is held, the window is open, and no tick's allowance comes
        within a byte of the capacity."""
        return (not self.recv_occupancy and self.window_state == OPEN_WINDOW
                and self.byte_rate * dt + 1.0 < self.recv_capacity)

    def plan(self, ts, dt, wants, left, rest=False, credit=None):
        """What advance(end, dt), read() and the window's close and reopen do on
        the ticks ending at ts[1:] (ts[0] is now), from the pacing `credit` (by
        default the connection's), the client reading wants[i - 1] bytes (or,
        with no wants, all it holds) after tick i, leaving the connection as it
        is.  Stops before a tick that sends into a zero window ("zero_window")
        or whose bytes reach `left` ("queue": what ends the caller's run), and
        after a fill the client leaves shut ("shut").  With `rest`, `left` is
        the queue: the tick that empties it plays, and the run stops after it
        ("queue").  Returns, for the ticks played, their sizes and the credit
        after each, the ticks that fill the window, the Pacing after them, and
        the cut.

        Ticks before the sender's resume time are laid out at once.  Where the
        client drains a window no tick can fill, the ticks are columns: one
        comprehension carries the credit as paced() splits it.  paced()
        prices every other tick, and the one whose bytes reach `left`.
        """
        rtt, capacity, byte_rate = self.transport.path.rtt_s, self.recv_capacity, self.byte_rate
        occ, resume, zero = self.recv_occupancy, self._resume_at, self.window_state == ZERO_WINDOW
        credit = self._rate_frac if credit is None else credit
        action = math.inf if left <= 0 else self.next_action(ts[0], dt) if zero else resume
        # a byte of slack over drains() for float error in a tick's length
        columns = wants is None and 0 < byte_rate * dt < capacity - 2.0
        read_by = list(accumulate(wants, initial=0)) if wants else None
        sizes, credits, fills = [], [], []
        closed = reopened = cut = None
        j, last = 1, len(ts) - 1
        while j <= last:
            now = ts[j]
            if now < action and not zero:
                # the sender waits for its resume time and the client reads
                end = bisect_left(ts, action, j, last + 1)
                sizes += repeat(0, end - j)
                credits += repeat(credit, end - j)
                occ = max(0, occ - (read_by[end - 1] - read_by[j - 1])) if wants else 0
                j = end
                continue
            if columns and not occ and not zero and now - dt >= resume:
                # the ticks, whole and after the resume time, that the bytes
                # to `left` take, and two more
                ends = ts[j:j + 2 + int(min(last, left / (byte_rate * dt)))]
                starts = map(sub, ends, repeat(dt))
                allowances = list(map(mul, repeat(byte_rate), map(sub, ends, starts)))
                # the credit before the first tick and after each, split as paced() splits it
                c = credit
                cs = [c, *[c := (allowance + c) % 1.0 for allowance in allowances]]
                ns = list(map(int, map(add, allowances, cs)))
                upto = list(accumulate(ns, initial=0))
                m = bisect_left(upto, left) - 1  # paced() prices the tick that reaches it
                sizes += ns[:m]
                credits += cs[1:m + 1]
                credit, left, j, columns = cs[m], left - upto[m], j + m, m == len(ns)
                continue
            n = 0
            if now >= action:
                if zero:
                    cut = "zero_window"
                    break
                n, after = paced(now, dt, resume, byte_rate, credit, left, capacity - occ)
                if n >= left:
                    cut = "queue"
                    if not rest:
                        break
                    # the tick empties the queue, and plays
                    n, after = paced(now, dt, resume, byte_rate, credit, left, left)
                credit, left, occ = after, left - n, occ + n
            fill = occ == capacity and not zero
            sizes.append(n)
            credits.append(credit)
            if fill:
                fills.append(j)
                closed, zero = now, True
            # min(wants[j - 1], occ), without the call
            got = occ if not wants or wants[j - 1] > occ else wants[j - 1]
            if got > 0:
                occ -= got
                if zero:
                    zero, reopened = False, now
                    action = resume = max(resume, now + rtt)
            j += 1
            if fill and zero:
                cut = "shut"  # the window stays shut: probes are advance()'s
            if cut:
                break
        return sizes, credits, fills, Pacing(credit, occ, resume, closed, reopened), cut

    def settle(self, sent, pacing, written=0):
        """Take the state a planned run that sent `sent` bytes and in which the
        server wrote `written` leaves, as advance(), read(), enqueue() and the
        window's close and reopen would."""
        self.send_queue += written - sent
        self.delivered_total += sent
        self._rate_frac, self.recv_occupancy, self._resume_at, closed, reopened = pacing
        if closed is not None:
            self.close_window(closed)
        if reopened is not None and (closed is None or reopened >= closed):
            self.reopen_window(reopened)

    def close_window(self, now):
        """The receive buffer filled on the tick ending at `now`: the window is zero.

        The sender probes one probe_interval later.  The caller emits the
        zero-window advertisement.
        """
        self.window_state = ZERO_WINDOW
        self._next_probe = now + self.probe_interval

    def next_action(self, now, dt):
        """Earliest tick end after `now` at which advance(end, dt) may change this connection.

        Until then advance() is a no-op for as long as nobody reads, enqueues
        or requests, so a caller may play the ticks in between without it.
        With bytes queued and room to receive them the sender moves data from
        the first tick ending after the resume time; blocked on a zero window
        it only probes.  Returns inf when it cannot act on its own.
        """
        if self.state != STATE_OPEN or self.send_queue == 0:
            return math.inf
        # advance() sends from the first tick ending after _resume_at; a tick
        # ending exactly at it paces zero bytes and only keeps the credit
        if self.recv_occupancy < self.recv_capacity:
            return self._resume_at
        # blocked on a zero window: a tick zeroes the pacing credit, and is a
        # no-op only once the credit is zero and every tick's allowance is at
        # least one byte (a first tick after the resume time may be partial,
        # and two bytes a tick leave room for float error in its length)
        credit_moves = (
            self._rate_frac != 0.0
            or self._resume_at >= now
            or self.byte_rate * dt < 2.0
        )
        if credit_moves:
            return min(self._next_probe, self._resume_at)
        return self._next_probe

    def close(self, now, mode):
        """Tear down at `now` with an RST or FIN record; undelivered server
        bytes are dropped.  Idempotent it is not."""
        if self.state == STATE_CLOSED:
            raise ValueError("connection %d closed twice" % self.id)
        if mode not in CLOSE_KINDS:
            raise ValueError("close mode must be RST or FIN")
        self.state = STATE_CLOSED
        self.send_queue = 0
        self._next_probe = None
        return self.transport.emit(now, UP, 0, CLOSE_KINDS[mode], self.id)


OUT_OF_ORDER = "packet timeline must be sorted by time"


def check_step(before, t):
    """The ValueError for a record at `t` after one at `before`, a step that
    is not `t >= before` (a NaN fails that too): for the first of `t` and
    `before` that is not finite, else for the step back."""
    check_ends(t, before)
    raise ValueError(OUT_OF_ORDER)


def check_ends(*times):
    """ValueError for the first of `times` that is not finite.  Of a timeline
    in time order with no NaN, the first and last time bound every other."""
    for t in times:
        if not math.isfinite(t):
            raise ValueError("packet timeline time %r is not finite" % t)


def check_time_order(times):
    """ValueError unless a timeline's times are finite and never step back:
    for the first step back (check_step), or a time that is not finite.  The
    radio drives and the trace estimators share this rule, so both reject
    the same timelines."""
    # sorting and list equality pass a NaN by; a sum does not, nor an inf
    if times == sorted(times) and math.isfinite(sum(times)):
        return
    for before, t in zip(times, islice(times, 1, None)):
        if not t >= before:
            check_step(before, t)
    check_ends(times[0], times[-1])


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
