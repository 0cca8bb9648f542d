"""Radio interface energy models driven by a packet timeline.

3G is a WCDMA/HSPA RRC state machine: any packet puts (or keeps) the radio in
CELL_DCH; inactivity demotes it down the ladder DCH -> FACH -> PCH -> IDLE on
three timers.  The timer values and per-state current draws default to values
measured on an isolated HSPA network with vendor-recommended configuration.

Wi-Fi is 802.11 power-save mode: the interface is active while traffic flows,
stays awake for a short idle timeout afterwards, then sleeps, waking briefly
every beacon interval to check the traffic indication map.  In CAM
(constantly-awake) mode it never sleeps.  Current draws differ per device and
must be supplied by the caller; there are deliberately no defaults.

A long sleep is mostly whole beacons, an ACTIVE wake and a SLEEP each.
psm_drive() returns each run of them as one BeaconTrain segment, labelled
BEACONS, that stands for the ACTIVE and SLEEP segments it replaces; the last
whole beacon of a run and every other beacon stay plain StateSegments.
expand_segments() turns a train back into those segments, with the same
floats, and clip_segments() and write_radio_csv() expand, so a .radio.csv is
the same per-beacon file.  BEACONS has no current in currents(): code that
prices segments by their state must expand them first or fail.

Charge integrates as dwell x current per state, in mA*s.  integrate() prices
a train with the float operations, in the order, that it would apply to the
expanded segments, so the dwell and charge are the same to the last bit.
It takes them a binade segment at a time (streamsim.binade): while the
beacon start, both dwells and the charge each stay in one binade, every
beacon adds the same step to each, and a run of beacons is one multiple of
it.  psm_drive() finds a train's end the same way.  Both step beacon by
beacon near zero, near a binade's top, where adding the wake or the
interval to a beacon start ties, and over the last few beacons of a run.

Each drive is one walk over the packet times, in order, that can be copied
and go on (_Walk).  A sweep's watches share the first packets of one
session, so it walks that session's times once and leaves on each watch's
timeline a copy of the walk at its prefix (share_walks()): the watch's
drive goes on from it and takes only its own last packets.
"""

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .analysis import data_view
from .binade import even_steps, settled_steps, twice_low_bit
from .transport import Timeline, check_time_order, write_rows

DCH = "DCH"
FACH = "FACH"
PCH = "PCH"
IDLE = "IDLE"

ACTIVE = "ACTIVE"
PSM_IDLE = "PSM_IDLE"
SLEEP = "SLEEP"
BEACONS = "BEACONS"  # a BeaconTrain's label: ACTIVE and SLEEP by turns
BULK = 16  # beacons left that are worth a closed-form step's checks


def _check_timer(name, value):
    """A ValueError that names the timer or interval unless it is positive (inf included)."""
    if not value > 0:
        raise ValueError("%s must be positive, not %r" % (name, value))


def _check_window(t_start, t_end):
    """A ValueError that names the window unless its bounds are finite and in order."""
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_start <= t_end):
        raise ValueError("radio window [%r, %r] must have finite bounds and "
                         "t_start <= t_end" % (t_start, t_end))


@dataclass
class RrcParams:
    # inactivity timers, seconds (DCH->FACH, FACH->PCH, PCH->IDLE)
    t1: float = 8.0
    t2: float = 3.0
    t3: float = 1740.0
    # mean current per state, mA
    current_dch: float = 200.0
    current_fach: float = 150.0
    current_pch: float = 50.0
    current_idle: float = 0.0
    promotion_delay: float = 0.0  # DCH-priced ramp ahead of a promoting packet

    def validate(self):
        # an infinite timer never fires; NaN compares false and is rejected
        for name in ("t1", "t2", "t3"):
            _check_timer(name, getattr(self, name))
        if not self.current_dch > self.current_fach > self.current_pch >= self.current_idle >= 0:
            raise ValueError("RRC currents must satisfy dch > fach > pch >= idle >= 0")
        if not self.promotion_delay >= 0:
            raise ValueError("promotion_delay must be >= 0, not %r" % (self.promotion_delay,))
        return self

    def currents(self):
        return {
            DCH: self.current_dch,
            FACH: self.current_fach,
            PCH: self.current_pch,
            IDLE: self.current_idle,
        }


@dataclass
class PsmParams:
    current_active: float
    current_idle: float
    current_sleep: float
    beacon_interval: float = 0.1
    idle_timeout: float = 0.1
    beacon_wake: float = 0.002  # TIM check cost, ACTIVE-priced
    cam_mode: bool = False

    def validate(self):
        _check_timer("beacon_interval", self.beacon_interval)
        _check_timer("idle_timeout", self.idle_timeout)
        if not 0 <= self.beacon_wake < self.beacon_interval:
            raise ValueError("beacon_wake must be in [0, beacon_interval)")
        if not self.current_active > self.current_idle > self.current_sleep >= 0:
            raise ValueError("PSM currents must satisfy active > idle > sleep >= 0")
        return self

    def currents(self):
        return {
            ACTIVE: self.current_active,
            PSM_IDLE: self.current_idle,
            SLEEP: self.current_sleep,
        }


@dataclass(slots=True)
class StateSegment:
    state: str
    start: float
    end: float


@dataclass(slots=True)
class BeaconTrain:
    """`count` whole power-save beacons in a row from `start` to `end`.

    Each beacon is an ACTIVE wake from its start t to t + wake, then SLEEP
    until the next beacon starts at t + interval.  The starts are the running
    sums start, start + interval, (start + interval) + interval, ... that
    psm_drive() steps through, and `end` is the sum after the last beacon.
    """

    start: float
    end: float
    count: int
    interval: float
    wake: float
    state = BEACONS  # a class attribute, not a field


def expand_segments(segments):
    """The segments with each BeaconTrain replaced by its ACTIVE and SLEEP
    StateSegments, one pair per beacon; other segments pass as they are."""
    for seg in segments:
        if not isinstance(seg, BeaconTrain):
            yield seg
            continue
        wake, interval = seg.wake, seg.interval
        t = seg.start
        for _ in range(seg.count):
            wake_end, nxt = t + wake, t + interval
            yield StateSegment(ACTIVE, t, wake_end)
            yield StateSegment(SLEEP, wake_end, nxt)
            t = nxt


@dataclass
class EnergyReport:
    """Charge and per-state dwell of a radio timeline, with the playback draw
    added (make_energy_report) or not (integrate(): playback_mA is 0)."""

    duration_s: float
    dwell: dict               # state -> seconds
    charge_mAs: float
    avg_total_mA: float
    playback_mA: float
    avg_streaming_mA: float


def _packet_times(records):
    """Timestamps of a Timeline (its own time column, whose order its
    data_view() checks once), of PacketRecords, or of bare times: ValueError
    unless they are finite and never step back (check_time_order())."""
    if isinstance(records, Timeline):
        data_view(records)
        return records.time
    try:
        times = [r.time for r in records]
    except AttributeError:
        times = [float(r) for r in records]
    check_time_order(times)
    return times


def _emit(segs, state, a, b):
    """Add the segment (state, a, b) to segs: nothing if it is empty, else
    onto the last segment if that has the same state and ends at a."""
    if b <= a:
        return
    if segs and segs[-1].state == state and abs(segs[-1].end - a) < 1e-12:
        segs[-1].end = b
    else:
        segs.append(StateSegment(state, a, b))


def rrc_drive(records, params, t_end=None, t_start=None):
    """Replay a packet timeline through the RRC ladder.

    Returns contiguous StateSegments over [t_start, t_end].  t_start defaults
    to the first packet (the radio is IDLE before it if t_start is earlier),
    t_end to the last packet plus the full demotion ladder.  The window must
    be finite and in order: with an infinite timer, pass t_end.
    """
    params.validate()
    times = _packet_times(records)
    if not times and t_end is None:
        raise ValueError("empty timeline needs an explicit t_end")
    if t_start is None:
        t_start = times[0] if times else 0.0
    if t_end is None:
        t_end = times[-1] + params.t1 + params.t2 + params.t3
    _check_window(t_start, t_end)
    return _RrcWalk(params, t_start).drive(records, times, t_end)


def _ladder(segs, params, last_packet, a, b):
    """Idle decay segments from a to b given the last packet time; the state at instant b."""
    d1 = last_packet + params.t1
    d2 = d1 + params.t2
    d3 = d2 + params.t3
    _emit(segs, DCH, a, min(b, d1))
    if b > d1:
        _emit(segs, FACH, max(a, d1), min(b, d2))
    if b > d2:
        _emit(segs, PCH, max(a, d2), min(b, d3))
    if b > d3:
        _emit(segs, IDLE, max(a, d3), b)
    if b <= d1:
        return DCH
    if b <= d2:
        return FACH
    if b <= d3:
        return PCH
    return IDLE


def _own(segs):
    """Copies of the segments: a walk that goes on from them changes none of these."""
    return [StateSegment(s.state, s.start, s.end) if type(s) is StateSegment
            else BeaconTrain(s.start, s.end, s.count, s.interval, s.wake) for s in segs]


class _Walk:
    """A radio drive's walk over a timeline's packet times, resumable.

    take() folds the next of the times, up to an index, that fall in the
    window from t_start (fold() takes them one by one); `done` counts the
    times taken, those before the window too.  finish(t_end) closes the
    walk at t_end and returns its segments, and copy() is a walk that goes
    on from this one's state with segments of its own.  rrc_drive() and
    psm_drive() are each one drive(): take the times up to t_end, then finish.
    """

    def __init__(self, params, t_start):
        self.params, self.t_start, self.segs = params, t_start, []
        self.cursor, self.done = t_start, 0

    def take(self, times, stop):
        start = max(self.done, self.window_start(times))
        self.fold(times if start == 0 and stop == len(times) else times[start:stop])
        self.done = stop

    def drive(self, records, times, t_end):
        """The segments of the walk of `times`, the packet times of
        `records`, to t_end.  Where a sweep left on the Timeline a walk of
        the same drive (share_walks()), with no packet taken past t_end,
        that walk goes on, and it is taken off the timeline."""
        hi = bisect_right(times, t_end)
        walk, kept = self, getattr(records, "_walk", None)
        if (type(kept) is type(self) and kept.params == self.params
                and kept.t_start == self.t_start and kept.done <= hi):
            walk, records._walk = kept, None
        walk.take(times, hi)
        return walk.finish(t_end)

    def copy(self):
        new = copy.copy(self)
        new.segs = _own(self.segs)
        return new


class _RrcWalk(_Walk):
    """rrc_drive()'s walk: `last_packet` is the last packet folded, and
    `tail` the last segment while it is a DCH segment ending at the cursor,
    which a packet within t1 of the last only stretches."""

    def __init__(self, params, t_start):
        super().__init__(params, t_start)
        self.last_packet = self.tail = None

    def window_start(self, times):
        """0: a packet before t_start still warms the radio."""
        return 0

    def fold(self, times):
        params, segs, t_start = self.params, self.segs, self.t_start
        t1 = params.t1
        cursor, last_packet, tail = self.cursor, self.last_packet, self.tail
        for t in times:
            if tail is not None and cursor <= t <= last_packet + t1:
                # within t1 of the last packet the radio is still in DCH: the
                # packet only stretches the DCH segment, as _ladder() would
                tail.end = t
                cursor = last_packet = t
                continue
            if t < t_start:
                # packet before the observation window still warms the radio
                last_packet = t
                continue
            if last_packet is None:
                if t > cursor:
                    _emit(segs, IDLE, cursor, t)
                state_now = IDLE
            else:
                state_now = _ladder(segs, params, last_packet, cursor, t)
            if state_now != DCH and params.promotion_delay > 0:
                ramp_start = max(cursor, t - params.promotion_delay)
                if segs:
                    # promotion ramp replaces the tail of the preceding segment
                    while segs and segs[-1].start >= ramp_start:
                        ramp_start = min(ramp_start, segs[-1].start)
                        segs.pop()
                    if segs and segs[-1].end > ramp_start:
                        segs[-1].end = ramp_start
                _emit(segs, DCH, ramp_start, t)
            cursor = last_packet = t
            tail = segs[-1] if segs and segs[-1].state == DCH and segs[-1].end == t else None
        self.cursor, self.last_packet, self.tail = cursor, last_packet, tail

    def finish(self, t_end):
        if self.last_packet is None:
            _emit(self.segs, IDLE, self.cursor, t_end)
        else:
            _ladder(self.segs, self.params, self.last_packet, self.cursor, t_end)
        return self.segs

    def copy(self):
        new = super().copy()
        if self.tail is not None:
            new.tail = new.segs[-1]
        return new


def psm_drive(records, params, t_end=None, t_start=0.0):
    """Replay a packet timeline through 802.11 power-save mode.

    Packets closer together than idle_timeout merge into one ACTIVE span;
    each span is followed by idle_timeout of awake-idle, then sleep with a
    short ACTIVE beacon wake at every beacon interval.  With cam_mode the
    radio never sleeps (idle instead).  Runs of whole beacons come back as
    BeaconTrain segments; expand_segments() gives the per-beacon list.  The
    window must be finite and in order: with an infinite idle_timeout, pass t_end.
    """
    params.validate()
    times = _packet_times(records)
    walk = _PsmWalk(params, t_start)
    if t_end is None:
        if walk.window_start(times) == len(times):
            raise ValueError("empty timeline needs an explicit t_end")
        t_end = times[-1] + params.idle_timeout
    _check_window(t_start, t_end)
    return walk.drive(records, times, t_end)


class _PsmWalk(_Walk):
    """psm_drive()'s walk: packets closer together than idle_timeout make
    one ACTIVE run, and `first` and `last` are the packets of the run still
    open (None and NaN before the first packet).  A run closes when a packet
    comes later than idle_timeout after its last, with its idle tail in
    full: the tail ends by that packet, which is inside the window.  Only
    the last run's tail can reach t_end, and finish() cuts it there.
    `sleep` adds the sleeps to this walk's segments."""

    def __init__(self, params, t_start):
        super().__init__(params, t_start)
        self.first, self.last = None, math.nan
        self.sleep = _sleeper(self.segs, params)

    def copy(self):
        new = super().copy()
        new.sleep = _sleeper(new.segs, new.params)
        return new

    def window_start(self, times):
        """The index of the first of the times from t_start on: packets
        before the window are left out (and all of them, from a NaN t_start)."""
        t_start = self.t_start
        return len(times) if math.isnan(t_start) else bisect_left(times, t_start)

    def fold(self, times):
        idle_timeout = self.params.idle_timeout
        first, last = self.first, self.last
        closed = []
        for t in times:
            if not t - last <= idle_timeout:  # a NaN last (no packet yet) too
                if first is not None:
                    closed.append((first, last))
                first = t
            last = t
        self.first, self.last = first, last
        if closed:
            self._runs(closed, math.inf)

    def finish(self, t_end):
        if self.first is not None:
            self._runs([(self.first, self.last)], t_end)
        if self.cursor < t_end:
            self.sleep(self.cursor, t_end)
        return self.segs

    def _runs(self, runs, t_end):
        """For each ACTIVE run of packets a to b, the sleep up to it, the
        run, and its idle tail, cut at t_end."""
        segs, cursor, sleep = self.segs, self.cursor, self.sleep
        idle_timeout = self.params.idle_timeout
        for a, b in runs:
            if a > cursor:
                sleep(cursor, a)
            _emit(segs, ACTIVE, a, b if b > a else a)  # max(b, a), without the call
            idle_end = b + idle_timeout
            if t_end < idle_end:
                idle_end = t_end
            _emit(segs, PSM_IDLE, b, idle_end)
            cursor = idle_end
        self.cursor = cursor


def _sleeper(segs, params):
    """The sleep from a to b, added to segs: beacon wakes, or with cam_mode
    awake-idle.  A closure: a trace makes thousands of short sleeps, and a
    closure reads the beacons and the segment list fastest."""
    append = segs.append
    wake, interval = params.beacon_wake, params.beacon_interval
    ties = (twice_low_bit(interval), twice_low_bit(wake))

    def sleep(a, b):
        if params.cam_mode:
            _emit(segs, PSM_IDLE, a, b)
            return
        # Beacon wakes pinned to the start of the sleep period.  A whole
        # beacon (it ends before b) whose wake and sleep both have length and
        # that follows a SLEEP segment is one _emit() would neither skip nor
        # merge.  A run of them goes into one BeaconTrain, except the last,
        # whose two segments are appended as they are: the beacon after it
        # may merge into its SLEEP.  The first beacon of a span, the last
        # partial one, and any whose wake or sleep rounds to nothing
        # (beacon_wake = 0, or t + beacon_wake == t late in a long trace) go
        # through _emit().  Where the beacon starts step evenly (see
        # binade.even_steps), every beacon of the step's run meets the train
        # test while its next start is before b, so the run is counted in
        # closed form up to two beacons short of either end.
        t = a
        after_sleep = False
        while t < b:
            wake_end, sleep_end = t + wake, t + interval
            if after_sleep and sleep_end < b and t < wake_end < sleep_end:
                first, count = t, 0
                retry_at = t if b - t > BULK * interval else b
                while True:
                    if t >= retry_at:
                        step = sleep_end - t
                        run = even_steps(t, step, interval, ties)
                        retry_at = t + run * step
                        skip = min(run - 1, int((b - t) / step) - 2) if run > 1 else 0
                        if skip > 0:
                            t += skip * step
                            count += skip
                            wake_end, sleep_end = t + wake, t + interval
                    last, last_wake_end = t, wake_end
                    t = sleep_end
                    wake_end, sleep_end = t + wake, t + interval
                    if not (sleep_end < b and t < wake_end < sleep_end):
                        break
                    count += 1
                if count:
                    append(BeaconTrain(first, last, count, interval, wake))
                append(StateSegment(ACTIVE, last, last_wake_end))
                append(StateSegment(SLEEP, last_wake_end, t))
                continue
            if b < wake_end:  # min(wake_end, b), without the call
                wake_end = b
            _emit(segs, ACTIVE, t, wake_end)
            _emit(segs, SLEEP, wake_end, b if b < sleep_end else sleep_end)
            after_sleep = segs[-1].state == SLEEP
            t += interval

    return sleep


def share_walks(params, times, watches):
    """Walk `times` once, and leave on each watch's timeline the walk of
    its first packets, which rrc_drive() or psm_drive() (by the type of
    params) of that timeline from t_start 0 goes on from.

    A watch is (records, prefix, t_end): a Timeline whose first `prefix`
    times are the first of `times`, to be driven to t_end.  Neither prefix
    nor t_end falls from one watch to the next.  The walk left on a watch
    has taken its first prefix times, or those up to t_end if fewer, so a
    drive to t_end takes only the rest of its own.
    """
    walk = _WALKS[type(params)](params.validate(), 0.0)
    for i, (records, prefix, t_end) in enumerate(watches):
        walk.take(times, min(prefix, bisect_right(times, t_end)))
        records._walk = walk.copy() if i < len(watches) - 1 else walk


_WALKS = {RrcParams: _RrcWalk, PsmParams: _PsmWalk}


def clip_segments(segments, t_start, t_end):
    """The part of a segment list that overlaps [t_start, t_end]."""
    if t_end < t_start:
        raise ValueError("clip window ends before it starts")
    out = []
    for seg in expand_segments(segments):
        a = max(seg.start, t_start)
        b = min(seg.end, t_end)
        if b > a:
            out.append(StateSegment(seg.state, a, b))
    return out


def integrate(segments, currents):
    """Charge and per-state dwell for a contiguous segment list, as an
    EnergyReport with no playback draw."""
    dwell = {}
    charge = 0.0
    for seg in segments:
        if isinstance(seg, BeaconTrain):
            charge = _price_beacons(seg, currents, dwell, charge)
            continue
        span = seg.end - seg.start
        if span < 0:
            raise ValueError("segment with negative span")
        dwell[seg.state] = dwell.get(seg.state, 0.0) + span
        try:
            charge += span * currents[seg.state]
        except KeyError:
            raise ValueError("no current configured for state %r" % seg.state) from None
    duration = sum(dwell.values())
    avg = charge / duration if duration > 0 else 0.0
    return EnergyReport(duration, dwell, charge, avg, 0.0, avg)


def _price_beacons(train, currents, dwell, charge):
    """integrate()'s loop over a train's expanded segments, with the sums in
    locals: the same float operations in the same order.  Updates `dwell` and
    returns the charge.

    While the beacon starts step evenly (binade.even_steps), each beacon
    adds the same wake and sleep spans to the dwells, and the same two
    charges in turn to the charge.  Two beacons priced one by one then give
    each sum's step, binade.settled_steps() says for how many more beacons
    each sum adds exactly that step, and those beacons are priced as one
    multiple of it.  Once fewer than BULK beacons are left, and where the
    closed form does not hold, beacons are priced one by one.
    """
    for state in (ACTIVE, SLEEP):
        if state not in currents:
            raise ValueError("no current configured for state %r" % state)
    current_wake, current_sleep = currents[ACTIVE], currents[SLEEP]
    wake, interval = train.wake, train.interval
    dwell_wake, dwell_sleep = dwell.get(ACTIVE, 0.0), dwell.get(SLEEP, 0.0)
    t = train.start
    left = train.count
    # the closed form needs every addend >= 0 and the wake inside the beacon
    if left >= BULK and 0.0 <= wake <= interval and current_wake >= 0.0 and current_sleep >= 0.0:
        ties = (twice_low_bit(interval), twice_low_bit(wake))
        while left >= BULK:
            wake_end, nxt = t + wake, t + interval
            span_wake = wake_end - t
            span_sleep = nxt - wake_end
            charge_wake, charge_sleep = span_wake * current_wake, span_sleep * current_sleep
            wake1, sleep1 = dwell_wake + span_wake, dwell_sleep + span_sleep
            charge1 = charge + charge_wake + charge_sleep
            run = even_steps(t, nxt - t, interval, ties)
            if run < 3:
                t, dwell_wake, dwell_sleep, charge = nxt, wake1, sleep1, charge1
                left -= 1
                continue
            # the second beacon, then as many more as every sum allows
            wake2, sleep2 = wake1 + span_wake, sleep1 + span_sleep
            charge2 = charge1 + charge_wake + charge_sleep
            more = min(
                run - 2, left - 2,
                settled_steps(dwell_wake, wake2, wake2 - wake1, span_wake),
                settled_steps(dwell_sleep, sleep2, sleep2 - sleep1, span_sleep),
                settled_steps(charge, charge2, charge2 - charge1, charge_wake + charge_sleep),
            )
            t += (2 + more) * (nxt - t)
            dwell_wake = wake2 + more * (wake2 - wake1)
            dwell_sleep = sleep2 + more * (sleep2 - sleep1)
            charge = charge2 + more * (charge2 - charge1)
            left -= 2 + more
    for _ in range(left):
        wake_end, nxt = t + wake, t + interval
        span = wake_end - t
        dwell_wake += span
        charge += span * current_wake
        span = nxt - wake_end
        dwell_sleep += span
        charge += span * current_sleep
        t = nxt
    dwell[ACTIVE], dwell[SLEEP] = dwell_wake, dwell_sleep
    return charge


def streaming_current(avg_total_mA, playback_mA):
    """Delivery-attributable current: total minus the playback-only draw."""
    if playback_mA > avg_total_mA:
        raise ValueError(
            "playback current %.1f mA exceeds total %.1f mA" % (playback_mA, avg_total_mA)
        )
    return avg_total_mA - playback_mA


def make_energy_report(report, playback_mA):
    """integrate()'s report with the playback draw of playback_mA added."""
    total = report.avg_total_mA + playback_mA
    return EnergyReport(
        duration_s=report.duration_s,
        dwell=dict(report.dwell),
        charge_mAs=report.charge_mAs + playback_mA * report.duration_s,
        avg_total_mA=total,
        playback_mA=playback_mA,
        avg_streaming_mA=streaming_current(total, playback_mA),
    )


def write_radio_csv(segments, path):
    """Rows as csv.writer writes them (no field needs quoting), per beacon."""
    with open(path, "w", newline="") as fh:
        fh.write("state,start_s,end_s\r\n")
        write_rows(fh, (
            "%s,%.6f,%.6f\r\n" % (s.state, s.start, s.end) for s in expand_segments(segments)
        ))
