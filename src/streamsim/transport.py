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


@dataclass(frozen=True)
class PathSpec:
    """Bottleneck description; jitter perturbs record timestamps only."""

    bandwidth_bps: float
    rtt_s: float = 0.05
    jitter: float = 0.0

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ValueError("path bandwidth must be positive")
        if self.rtt_s < 0:
            raise ValueError("rtt must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")


def paced(now, dt, resume_at, byte_rate, credit, queue, room):
    """Pacing of the tick ending at `now`: (bytes sent, pacing credit after it).

    The sender moves data only after resume_at, at byte_rate bytes a second
    plus the sub-byte credit carried from earlier ticks, and never more than
    `room` (the queue, the free receive space and any limit, whichever is
    least).  The credit carries over only when the allowance is what cut the
    bytes.  Connection.pace and the session's span playback both pace with it.
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
    """Factory for connections over one path; owns the shared packet timeline."""

    def __init__(self, path, kernel, seed=0):
        self.path = path
        self.kernel = kernel
        self.records = []
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
        return self.records[-1]

    def detached(self, time, direction, payload, kind, conn_id):
        """The record emit() would append, with the timeline and the jitter
        state left as they were: its jitter comes from a copy of the state."""
        state, nominal, last = self._rng.getstate(), self._last_nominal, self._last_emit
        record = self.emit(time, direction, payload, kind, conn_id)
        self.records.pop()
        self._rng.setstate(state)
        self._last_nominal, self._last_emit = nominal, last
        return record

    def emit_run(self, direction, kind, conn_id, times, payloads):
        """emit() each (time, payload) pair in turn, with the same jitter draws."""
        jitter = self.path.jitter
        uniform = self._rng.uniform
        nominal, last = self._last_nominal, self._last_emit
        append = self.records.append
        for time, payload in zip(times, payloads):
            if jitter > 0.0:
                gap = time - nominal
                gap = gap if gap > 0.0 else 0.0  # max(0.0, gap), without the call
                nominal = time
                time = time + uniform(-1.0, 1.0) * jitter * gap
            else:
                nominal = time
            # timeline must stay sorted for the radio models downstream
            if time < last:
                time = last
            last = time
            append(PacketRecord(time, direction, payload, kind, conn_id))
        self._last_nominal, self._last_emit = nominal, last


class Connection:
    """One server->client transfer with receive-window flow control."""

    def __init__(self, transport, conn_id, recv_capacity, probe_interval):
        self.transport = transport
        self.id = conn_id
        self.state = STATE_OPEN
        self.close_mode = None
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

    def enqueue(self, nbytes, rate_cap="keep"):
        """Queue nbytes at the server; optionally set the pacing cap (bps)."""
        if self.state != STATE_OPEN:
            raise ValueError("enqueue on closed connection %d" % self.id)
        if nbytes < 0:
            raise ValueError("cannot enqueue negative bytes")
        self.send_queue += int(nbytes)
        if rate_cap != "keep":
            self.set_rate_cap(rate_cap)
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

        Delivery this tick is what pace() allows.  While the sender is
        blocked on a zero window it emits probe/advertisement pairs every
        probe_interval instead.
        """
        if dt <= 0:
            raise ValueError("advance needs dt > 0")
        if self.state != STATE_OPEN:
            return []
        out = []
        now = self.transport.kernel.now
        n, credit, _ = self.pace(now, dt, limit)
        if n > 0:
            out.append(self.send(now, n, credit))
        else:
            self._rate_frac = credit
        if self.recv_occupancy >= self.recv_capacity and self.window_state == OPEN_WINDOW:
            out.append(self.close_window(now))
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

    def pace(self, now, dt, limit=None):
        """What the tick ending at `now` sends: (bytes, pacing credit after it, whole).

        The bytes are min(send_queue, pacing allowance, free buffer space,
        limit).  `whole` says they are the whole allowance with the queue,
        the free space and the limit all left over: sending them changes
        nothing but the byte counts and the credit.  Changes nothing itself.
        """
        room = min(self.send_queue, self.recv_capacity - self.recv_occupancy)
        if limit is not None:
            room = min(room, int(limit))
        n, credit = paced(
            now, dt, self._resume_at, self._rate_bps() / 8.0, self._rate_frac, self.send_queue, room
        )
        return n, credit, 0 < n < room

    def send(self, now, n, credit):
        """Send n > 0 bytes that pace() allowed for the tick ending at `now`; returns the record."""
        self._rate_frac = credit
        self.send_queue -= n
        self.recv_occupancy += n
        self.delivered_total += n
        return self.transport.emit(now, DOWN, n, DATA, self.id)

    def close_window(self, now):
        """The receive buffer filled on the tick ending at `now`: advertise a zero window.

        Returns the advertisement; the sender probes one probe_interval later.
        """
        self.window_state = ZERO_WINDOW
        self._next_probe = now + self.probe_interval
        return self.transport.emit(now, UP, 0, ZERO_WINDOW_AD, self.id)

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
        self.close_mode = mode
        self.send_queue = 0
        self._next_probe = None
        return self.transport.emit(self.transport.kernel.now, UP, 0, CLOSE_KINDS[mode], self.id)


def check_time_order(times):
    """Whether a timeline's times never step back; ValueError if one steps
    back by more than 1e-12.  Smaller steps back are float noise and pass
    (the result is then False).  The radio drives and the trace estimators
    share this rule, so both reject the same timelines."""
    if times == sorted(times):
        return True
    if any(b < a - 1e-12 for a, b in zip(times, times[1:])):
        raise ValueError("packet timeline must be sorted by time")
    return False


def write_timeline_csv(records, path):
    # rows as csv.writer would write them: no field needs quoting
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TIMELINE_HEADER) + "\r\n")
        fh.writelines(
            "%.6f,%s,%d,%s,%d\r\n" % (r.time, r.direction, r.payload, r.kind, r.conn_id)
            for r in records
        )


def read_timeline_csv(path):
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != TIMELINE_HEADER:
            raise ValueError("unexpected timeline header: %s" % header)
        for row in rd:
            out.append(PacketRecord(float(row[0]), row[1], int(row[2]), row[3], int(row[4])))
    return out
