"""Packet-trace analysis: burst statistics, rate estimators, and a rule
cascade that recovers the delivery technique from a timeline alone.

The classifier formalizes what an engineer does by eye on a throughput plot:
look for multiple connections separated by silence, zero-window chatter,
the ratio of steady throughput to the encoding rate, request periodicity,
and whether the download finishes well before playback.  Thresholds are
fitted constants; they were tuned against simulated traces of all five
techniques and are deliberately loose enough to survive ~10% timing jitter.
"""

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count
from operator import itemgetter, le, sub

from .media import VideoSpec
from .transport import (
    DATA,
    REQUEST,
    ZERO_WINDOW_AD,
    ZERO_WINDOW_PROBE,
    Timeline,
    check_ends,
    check_step,
    check_time_order,
)

THRESHOLDS = {
    "burst_gap_s": 0.050,        # records closer than this belong to one burst
    "silent_gap_s": 10.0,        # on-off style silence between bursts/connections
    "knee_window_s": 2.0,        # throughput window for fast-start knee detection
    "knee_drop_frac": 0.8,       # knee = first window below this fraction of max
    "ads_per_min": 10.0,         # zero-window ads considered "frequent"
    "encoding_band": (0.9, 1.1),  # throughput/encoding-rate ratio for steady pacing
    "throttle_band": (1.1, 3.5),
    "early_margin_s": 15.0,      # media seconds still buffered when download ends
    "min_requests": 5,
    "request_regularity": 0.6,   # fraction of request gaps near the median
    "fc_bandwidth_frac": 0.8,
    "span_coverage": 0.85,       # data span / trace span for the fallback rule
}

ENCODING_RATE = "ENCODING_RATE"
THROTTLE = "THROTTLE"
ON_OFF_PERSISTENT = "ON_OFF_PERSISTENT"
ON_OFF_PER_BURST = "ON_OFF_PER_BURST"
FAST_CACHING = "FAST_CACHING"
DASH = "DASH"
UNKNOWN = "UNKNOWN"


@dataclass(slots=True)
class Burst:
    start: float
    end: float
    nbytes: int
    packets: int


@dataclass
class ClassificationResult:
    label: str
    confidence: float
    evidence: dict = field(default_factory=dict)


@dataclass
class FastStartEstimate:
    end_time: float
    nbytes: int
    media_s: float


def group_bursts(records, gap_s=THRESHOLDS["burst_gap_s"]):
    """Maximal runs of DATA records with inter-packet gaps below gap_s.

    Raises ValueError if gap_s is not positive, or if any record, control
    records too, has a time that is not finite or steps back from the one
    ahead of it (check_time_order()'s rule).  A Timeline is
    read from its data_view(): a burst ends where a gap is not below gap_s,
    and its bytes are a difference of two prefix sums.  A list is read
    record by record.
    """
    if not gap_s > 0:
        raise ValueError("gap_s must be positive, got %r" % (gap_s,))
    last = -sys.float_info.max  # below every finite time: a first -inf fails check_step()
    if isinstance(records, Timeline):
        try:
            view = data_view(records)
        except ValueError:
            # the record loop's steps, its first one too, for its error text
            check_time_order([last, *records.time])
            raise
        times, cums = view.times, view.cums
        if not times:
            return []
        default = gap_s == THRESHOLDS["burst_gap_s"]
        cuts = view.burst_starts() if default else _burst_starts(times, gap_s)
        starts, ends = [0, *cuts], [*cuts, len(times)]
        return [Burst(times[i], times[j - 1], cums[j] - cums[i], j - i)
                for i, j in zip(starts, ends)]
    bursts = []
    start = None
    end = float("-inf")  # no record is within gap_s of -inf
    nbytes = packets = 0
    for r in records:
        t = r.time
        if not t >= last:
            check_step(last, t)
        last = t
        if r.kind != DATA:
            continue
        if t - end < gap_s:
            end = t
            nbytes += r.payload
            packets += 1
        else:
            if start is not None:
                bursts.append(Burst(start, end, nbytes, packets))
            start = end = t
            nbytes, packets = r.payload, 1
    check_ends(last)
    if start is not None:
        bursts.append(Burst(start, end, nbytes, packets))
    return bursts


def _burst_starts(times, gap_s):
    """The indices k > 0 at which a burst starts in a _DataView's record-order
    times, which are finite: those at least gap_s after the time before."""
    return [k for k, a, b in zip(count(1), times, times[1:]) if b - a >= gap_s]


def burst_cdf(bursts):
    """Empirical CDFs of burst sizes and inter-burst intervals.

    Returns (size_points, interval_points), each a list of (value, cum_frac)
    sorted by value.  Intervals are next.start - previous.end.
    """
    sizes = sorted(b.nbytes for b in bursts)
    intervals = sorted(
        bursts[i + 1].start - bursts[i].end for i in range(len(bursts) - 1)
    )

    def cdf(values):
        n = len(values)
        return [(v, (i + 1) / n) for i, v in enumerate(values)]

    return cdf(sizes), cdf(intervals)


class _DataView:
    """A timeline's DATA records as times and byte prefix sums.

    `times` and `cums` follow record order, which is time order, as
    bisection needs: building a view of a timeline that steps back or has a
    time that is not finite is a ValueError (check_time_order()).  cums[k]
    is the payload of the first k DATA records, so cums[0] == 0 and
    cums[-1] is the total.  burst_starts() is kept.

    A Timeline's view also keeps, from the same walk over its runs, the
    tallies _harvest() and audit() read (a list's keeps None for each):
    - `marks`: the record indices of the REQUEST, ZERO_WINDOW_AD and
      ZERO_WINDOW_PROBE records, a list per kind;
    - `data_at`: the first record of each DATA run, and `data_before`: the
      DATA records ahead of each, then their total;
    - `stretches`: (conn, first record, end record, DATA records before the
      first, DATA records before the end) of each maximal stretch of
      records on one connection.
    Each is in record order, so the tallies of the first m records are a
    slice of them (share_view()).
    """

    __slots__ = ("times", "cums", "_cuts", "marks", "data_at", "data_before", "stretches")

    def __init__(self, records):
        timeline = isinstance(records, Timeline)
        all_times = records.time if timeline else [r.time for r in records]
        check_time_order(all_times)
        if timeline:
            self._read(records)
            return
        is_data = [r.kind == DATA for r in records]
        self.times = list(compress(all_times, is_data))
        payloads = [r.payload for r in compress(records, is_data)]
        self.cums = list(accumulate(payloads, initial=0))
        self._cuts = self.marks = self.data_at = self.data_before = self.stretches = None

    def _read(self, timeline):
        """Build the view of a Timeline, whatever the order of its times."""
        self.marks = {REQUEST: [], ZERO_WINDOW_AD: [], ZERO_WINDOW_PROBE: []}
        self.data_at, self.data_before, self.stretches = [], [0], []
        self._tally(timeline.runs())
        time, payload, before = timeline.time, timeline.payload, self.data_before
        data = [(a, a + n1 - n0) for a, n0, n1 in zip(self.data_at, before, before[1:])]
        self.times = list(chain.from_iterable(time[a:b] for a, b in data))
        self.cums = list(accumulate(chain.from_iterable(payload[a:b] for a, b in data),
                                    initial=0))
        self._cuts = None

    def _tally(self, runs):
        """Add runs, (start, end, direction, kind, conn) each and following
        the records tallied so far, to the tallies."""
        marks, data_at, stretches = self.marks, self.data_at, self.stretches
        before = self.data_before
        conn, first, end, d0, _ = stretches.pop() if stretches else (_NO_CONN, 0, 0, 0, 0)
        for start, end, _, kind, c in runs:
            if c != conn:
                if conn is not _NO_CONN:
                    stretches.append((conn, first, start, d0, before[-1]))
                conn, first, d0 = c, start, before[-1]
            if kind == DATA:
                data_at.append(start)
                before.append(before[-1] + end - start)
            elif kind in marks:
                marks[kind] += range(start, end)
        if conn is not _NO_CONN:
            stretches.append((conn, first, end, d0, before[-1]))

    def burst_starts(self):
        """_burst_starts() of the times at THRESHOLDS["burst_gap_s"], kept."""
        if self._cuts is None:
            self._cuts = _burst_starts(self.times, THRESHOLDS["burst_gap_s"])
        return self._cuts


_NO_CONN = object()  # before the first run tallied: no connection is this one


def _unchecked_view(timeline):
    """A Timeline's _DataView without the time-order check: its tallies for
    audit(), which reports the order on its own."""
    view = object.__new__(_DataView)
    view._read(timeline)
    return view


def data_view(records):
    """The _DataView of `records`.  A Timeline keeps its own, with the
    burst split points once a reader works them out: the first reader
    builds it, or share_view() slices it from a longer timeline's, and the
    timeline drops it when its columns change.  A list gets a fresh one
    each call, as its records can change unseen.

    A kept view packs its prefix sums into 8-byte ints, where they fit: a
    list of ints takes about 40 bytes an entry, which a run report would
    hold as long as its timeline.
    """
    if not isinstance(records, Timeline):
        return _DataView(records)
    view = records._view
    if view is None:
        view = records._view = _DataView(records)
        try:
            view.cums = array("q", view.cums)
        except (TypeError, OverflowError):
            pass  # a payload that is not an int, or sums past 2**63
    return view


def share_view(records, view, m):
    """Keep on `records`, a Timeline whose first m records are the first m of
    `view`'s timeline, a slice of `view`: the view data_view() would build,
    when the records past m are finite, in order from record m - 1 and not
    DATA.  Else data_view() builds its own.

    The DATA records among the first m are found by bisection in `data_at`,
    the other tallies are sliced at m, and the runs past m are tallied onto
    them."""
    tail = records.time[m - 1:]
    if records._view is not None or not (m and all(map(le, tail, tail[1:]))
                                         and math.isfinite(tail[-1])):
        return
    # the runs past m; the first may have started before it
    runs = records._runs
    i = bisect_right(runs, m, key=itemgetter(0))
    rest = [(start, end, direction, kind, conn) for start, (end, direction, kind, conn)
            in zip([m, *map(itemgetter(0), runs[i:-1])], runs[i:])]
    if any(kind == DATA for _, _, _, kind, _ in rest):
        return
    at, before = view.data_at, view.data_before
    j = bisect_left(at, m)  # the DATA runs that start before record m
    d = min(before[j - 1] + m - at[j - 1], before[j]) if j else 0
    cuts = view.burst_starts()
    records._view = shared = object.__new__(type(view))
    shared.times, shared.cums = view.times[:d], view.cums[:d + 1]
    shared._cuts = cuts[:bisect_left(cuts, d)]
    shared.marks = {kind: ids[:bisect_left(ids, m)] for kind, ids in view.marks.items()}
    shared.data_at, shared.data_before = at[:j], [*before[:j], d]
    k = bisect_left(view.stretches, m, key=itemgetter(1))  # those that start before m
    conn, first, end, d0, d1 = view.stretches[k - 1]
    shared.stretches = [*view.stretches[:k - 1], (conn, first, min(end, m), d0, min(d1, d))]
    shared._tally(rest)


def find_rate_knee(records, window_s=None, drop_frac=None):
    """Start time of the first throughput window after the initial burst whose
    rate falls below drop_frac of the session maximum, or None.

    window_s must be positive and drop_frac in (0, 1]; None means the
    THRESHOLDS default.  Raises ValueError for other values, and for a
    timeline that is not in time order.
    """
    if window_s is not None and not window_s > 0:
        raise ValueError("window_s must be positive, got %r" % (window_s,))
    if drop_frac is not None and not 0 < drop_frac <= 1:
        raise ValueError("drop_frac must be in (0, 1], got %r" % (drop_frac,))
    return _rate_knee(data_view(records), window_s, drop_frac)


def _rate_knee(view, window_s=None, drop_frac=None):
    """The knee from fixed windows of window_s from the first DATA record.

    A record lands in window int((t - t0) / window_s); records past the last
    whole window are left out, as the trailing partial window is not
    comparable to full ones.  That index never falls as t grows, so the
    records of each window are a run of the times, and its bytes are a
    difference of two prefix sums.  The run ends near t0 + (i + 1) * window_s;
    bisection finds that time, and the index expression itself settles the
    records within rounding of it.  Payloads are ints, so while a window
    holds under 2**53 bytes its total equals a float sum of its payloads in
    any order, as the window loop this replaces added them.
    """
    if window_s is None:
        window_s = THRESHOLDS["knee_window_s"]
    if drop_frac is None:
        drop_frac = THRESHOLDS["knee_drop_frac"]
    times, cums = view.times, view.cums
    if len(times) < 2:
        return None
    t0, t_last = times[0], times[-1]
    if t_last - t0 < window_s:
        return None
    n_windows = int((t_last - t0) / window_s)

    def window(t):
        return int((t - t0) / window_s)

    n = len(times)
    sums = [0] * n_windows
    lo = 0
    for i in range(n_windows):
        # hi: the first record past window i
        hi = bisect_right(times, t0 + (i + 1) * window_s, lo)
        while hi > lo and window(times[hi - 1]) > i:
            hi -= 1
        while hi < n and window(times[hi]) <= i:
            hi += 1
        sums[i] = cums[hi] - cums[lo]
        lo = hi
    peak = max(sums)
    for i, s in enumerate(sums):
        if s < drop_frac * peak:
            return t0 + i * window_s
    return None


def _check_rate(name, value):
    """ValueError, naming the value, unless a rate is positive and finite."""
    if not 0 < value < math.inf:
        raise ValueError("%s must be positive and finite, got %r" % (name, value))


def estimate_throttle_factor(records, avg_rate_bps, fast_start_exclusion=None):
    """Steady-phase throughput over the average encoding rate.

    The initial unlimited-rate fill is excluded; by default its end is found
    with the rate-knee heuristic.  Raises ValueError when the rate is not
    positive and finite, the trace has no steady phase to measure, or it is
    not in time order.
    """
    _check_rate("avg_rate_bps", avg_rate_bps)
    view = data_view(records)
    if not view.times:
        raise ValueError("no DATA records in trace")
    if fast_start_exclusion is None:
        fast_start_exclusion = _rate_knee(view) or 0.0
    return _steady_ratio(view, avg_rate_bps, fast_start_exclusion)


def _steady_ratio(view, avg_rate_bps, fast_start_exclusion):
    span = view.times[-1] - fast_start_exclusion
    if span <= 0:
        raise ValueError("no steady phase after the fast-start exclusion")
    # bytes of the records later than the exclusion: a suffix of the view
    cums = view.cums
    nbytes = cums[-1] - cums[bisect_right(view.times, fast_start_exclusion)]
    return (nbytes * 8.0 / span) / avg_rate_bps


def estimate_fast_start(records, avg_rate_bps):
    """Bytes (and media seconds) delivered by the initial unlimited burst.

    Finds the elbow of the cumulative-bytes curve: the first point where
    cum(t) - steady_rate * t stops growing.  Works for traces whose delivery
    continues at or above the steady rate after the initial fill; for
    strongly on-off traces the estimate reflects the first burst peak.
    Raises ValueError for a rate that is not positive and finite, and for a
    timeline that is not in time order.
    """
    _check_rate("avg_rate_bps", avg_rate_bps)
    view = data_view(records)
    times, cums = view.times, view.cums
    if len(times) < 2:
        raise ValueError("trace too short to estimate the initial burst")
    t0 = times[0]
    span = times[-1] - t0
    if span <= 0:
        raise ValueError("degenerate trace")
    # steady slope from the back 60% of the delivery span; cums[k + 1] is the
    # bytes up to and including record k
    tail_start = t0 + 0.4 * span
    k = bisect_right(times, tail_start)
    if k >= len(times):
        k = len(times) - 1
    rho = (cums[-1] - cums[k + 1]) / max(times[-1] - times[k], 1e-9)  # bytes/s
    values = [c - rho * (t - t0) for t, c in zip(times, cums[1:])]
    vmax = max(values)
    tol = rho * 2.0  # one knee window of steady-rate slack
    i = next(j for j, v in enumerate(values) if v >= vmax - tol)
    while i + 1 < len(values) and values[i + 1] > values[i]:
        i += 1  # climb to the local peak so we sit at the end of the burst
    return FastStartEstimate(
        end_time=times[i],
        nbytes=cums[i + 1],
        media_s=cums[i + 1] * 8.0 / avg_rate_bps,
    )


def estimate_buffer(records, encoding_schedule, start_of_playback):
    """Replay a trace into a buffered-data estimate.

    Buffered bytes = cumulative received - cumulative consumed, where the
    playhead starts at start_of_playback, advances in real time, and freezes
    whenever the estimate would go negative (a stall, by construction).
    Returns [(time, buffer_bytes, buffer_media_s), ...] sampled at the first
    DATA arrival, at each arrival where the received bytes first reach a whole
    second of the clip (a zero-byte second shares its arrival), and at the
    last arrival.  Each sample is the one a replay of every arrival gives
    there, with VideoSpec's media_time() and cum_bytes().

    The playhead is replayed in windows.  While it stays within the media
    held at a window's start, each arrival advances it by its whole time
    step: the window's playheads are a running sum of those steps.  Each
    arrival that leaves that bound takes the step alone, min(step, media
    ahead of the playhead).  Payloads are non-negative.

    Raises ValueError for a start_of_playback that is not finite, and if any
    record, control records too, has a time that is not finite or steps back
    from the one ahead of it (check_time_order()'s rule).
    """
    if not math.isfinite(start_of_playback):
        raise ValueError("start_of_playback must be finite, got %r" % (start_of_playback,))
    video = VideoSpec(encoding_schedule)
    view = data_view(records)
    times, cums = view.times, view.cums
    n = len(times)
    if not n:
        return []
    # cums[k + 1] is the bytes received after arrival k
    picks = sorted({0, n - 1}.union(
        bisect_left(cums, c, 1) - 1 for c in video._cum[1:] if c <= cums[-1]
    ))
    duration = float(video.duration_s)
    playhead, wall = 0.0, start_of_playback
    k = bisect_right(times, wall)  # arrivals at or before the start move nothing
    heads = [playhead] * bisect_left(picks, k)  # the playhead at each pick
    while k < n and playhead < duration:
        media = video.media_time(cums[k])  # held before arrival k, and never less later
        hi = bisect_right(times, wall + (media - playhead), k)
        steps = map(sub, times[k:hi], chain((wall,), times[k:hi - 1]))
        run = list(accumulate(steps, initial=playhead))
        # where p + step <= media, the per-arrival p + min(step, media - p)
        # rounds to the same float (Sterbenz's lemma, or a tie to even)
        hi = k + bisect_right(run, media, 1) - 1
        # the arrival's own step, at most the media ahead; it may round one ulp
        # past the media held, but never past the clip's end, a whole second
        if hi == k:
            step, avail = times[k] - wall, media - playhead
            run, hi = [playhead, playhead + min(step, avail) if avail > 0 else playhead], k + 1
        heads += [run[p - k + 1] for p in picks[len(heads):bisect_left(picks, hi)]]
        playhead, wall, k = run[hi - k], times[hi - 1], hi
    heads += [playhead] * (len(picks) - len(heads))  # at the clip's end it moves no more
    received = [cums[p + 1] for p in picks]
    return list(zip(
        [times[p] for p in picks],
        map(sub, received, video.cum_bytes_at(heads)),
        map(sub, map(video.media_time, received), heads),
    ))


def _harvest(records, view):
    """The features the classifier rules read, from `view`, the records'
    _DataView, whose build checked their time order.

    The DATA count, bytes and burst gaps come from the view's times.  Bursts
    split where group_bursts() splits them, at the view's kept split points.
    A connection spans its first record's time to its last's.  A Timeline's
    control records are counted from the view's tallies, and its
    connections' spans taken from its stretches; a list is read record by
    record.
    """
    probes = ads = 0
    data_conns = set()
    req_times = []
    spans = {}  # conn_id -> [first, last] record time, any record kind
    conn = span = data_conn = None
    timeline = isinstance(records, Timeline)
    if timeline:
        time, marks = records.time, view.marks
        for c, first, end, d0, d1 in view.stretches:
            spans.setdefault(c, [time[first], 0.0])[1] = time[end - 1]
            if d1 > d0:
                data_conns.add(c)
        req_times = [time[i] for i in marks[REQUEST]]
        ads, probes = len(marks[ZERO_WINDOW_AD]), len(marks[ZERO_WINDOW_PROBE])
    else:
        for r in records:
            t = r.time
            if r.conn_id != conn:
                conn = r.conn_id
                span = spans.setdefault(conn, [t, t])
            span[1] = t
            kind = r.kind
            if kind == DATA:
                if conn != data_conn:
                    data_conn = conn
                    data_conns.add(conn)
            elif kind == REQUEST:
                req_times.append(t)
            elif kind == ZERO_WINDOW_AD:
                ads += 1
            elif kind == ZERO_WINDOW_PROBE:
                probes += 1

    times = view.times
    feats = {
        "data_packets": len(times),
        "data_bytes": view.cums[-1],
        "probes": probes,
        "ads": ads,
        "requests": len(req_times),
        "connections": len(data_conns),
    }
    if not times:
        return feats
    gaps = [times[k] - times[k - 1] for k in view.burst_starts()]
    feats["bursts"] = len(gaps) + 1
    feats["max_burst_gap_s"] = max(gaps, default=0.0)
    feats["long_gaps"] = sum(g >= THRESHOLDS["silent_gap_s"] for g in gaps)

    # silence between consecutive connections' activity spans (any record kind)
    ordered = sorted(spans.values())
    conn_gaps = [
        max(0.0, ordered[i + 1][0] - ordered[i][1]) for i in range(len(ordered) - 1)
    ]
    if conn_gaps:
        conn_gaps.sort()
        feats["median_conn_gap_s"] = conn_gaps[len(conn_gaps) // 2]
    else:
        feats["median_conn_gap_s"] = 0.0

    feats["data_span_s"] = times[-1] - times[0]
    feats["trace_span_s"] = (records.time[-1] - records.time[0] if timeline
                             else records[-1].time - records[0].time)
    feats["span_coverage"] = (
        feats["data_span_s"] / feats["trace_span_s"] if feats["trace_span_s"] > 0 else 0.0
    )
    minutes = max(feats["data_span_s"] / 60.0, 1e-9)
    feats["ads_per_min"] = feats["ads"] / minutes

    gaps_req = []
    for i in range(len(req_times) - 1):
        gaps_req.append(req_times[i + 1] - req_times[i])
    if gaps_req:
        srt = sorted(gaps_req)
        med = srt[len(srt) // 2]
        near = sum(1 for g in gaps_req if med > 0 and 0.3 * med <= g <= 3.0 * med)
        feats["request_gap_median_s"] = med
        feats["request_regularity"] = near / len(gaps_req)
    else:
        feats["request_gap_median_s"] = 0.0
        feats["request_regularity"] = 0.0
    return feats


def classify(records, avg_rate_bps, path_bandwidth_bps):
    """Label a packet timeline with the delivery technique that produced it.

    Rules are tried in a fixed order; the first match wins and sets the
    confidence from its decisive margin.  A trace that matches nothing is
    UNKNOWN with the collected evidence attached.  Raises ValueError when
    either rate is not positive and finite, or when the timeline is not in
    time order.
    """
    _check_rate("avg_rate_bps", avg_rate_bps)
    _check_rate("path_bandwidth_bps", path_bandwidth_bps)
    th = THRESHOLDS
    view = data_view(records)
    feats = _harvest(records, view)
    if not view.times:
        return ClassificationResult(UNKNOWN, 0.0, feats)

    # the knee both ends the fast start and is the steady ratio's exclusion,
    # as in estimate_throttle_factor()
    knee = _rate_knee(view)
    try:
        ratio = _steady_ratio(view, avg_rate_bps, knee or 0.0)
    except ValueError:
        ratio = None
    feats["steady_ratio"] = ratio
    fs_end = knee if knee is not None else view.times[0]
    media_total_s = feats["data_bytes"] * 8.0 / avg_rate_bps
    feats["early_margin_s"] = media_total_s - (view.times[-1] - fs_end)
    feats["bandwidth_frac"] = (
        (feats["data_bytes"] * 8.0 / max(feats["data_span_s"], 1e-9)) / path_bandwidth_bps
    )

    def clip01(x):
        return max(0.0, min(1.0, x))

    # 1: several connections separated by real silence -> burst-per-connection
    if feats["connections"] >= 2 and feats["median_conn_gap_s"] >= th["silent_gap_s"]:
        margin = (feats["median_conn_gap_s"] - th["silent_gap_s"]) / th["silent_gap_s"]
        return ClassificationResult(ON_OFF_PER_BURST, 0.5 + 0.5 * clip01(margin), feats)

    # 2: one connection kept alive through long gaps by zero-window probes
    if feats["probes"] >= 2 and feats["long_gaps"] >= 1:
        margin = (feats["max_burst_gap_s"] - th["silent_gap_s"]) / th["silent_gap_s"]
        return ClassificationResult(ON_OFF_PERSISTENT, 0.5 + 0.5 * clip01(margin), feats)

    # 3: chatty zero-window advertisements with ~encoding-rate throughput
    lo, hi = th["encoding_band"]
    if feats["ads_per_min"] >= th["ads_per_min"] and ratio is not None and lo <= ratio <= hi:
        margin = (0.1 - abs(ratio - 1.0)) / 0.05
        return ClassificationResult(ENCODING_RATE, 0.5 + 0.5 * clip01(margin), feats)

    # 4: clean pacing above the encoding rate that finishes early
    lo, hi = th["throttle_band"]
    if (
        feats["probes"] + feats["ads"] <= 2
        and ratio is not None
        and lo < ratio <= hi
        and feats["early_margin_s"] >= th["early_margin_s"]
    ):
        dist = min(ratio - lo, hi - ratio)
        return ClassificationResult(THROTTLE, 0.5 + 0.5 * clip01(dist / 0.12), feats)

    # 5: periodic request/response pairs -> segmented delivery
    if (
        feats["requests"] >= th["min_requests"]
        and feats["request_regularity"] >= th["request_regularity"]
    ):
        conf = min(1.0, 0.75 + 0.005 * feats["requests"] + 0.2 * feats["request_regularity"])
        return ClassificationResult(DASH, conf, feats)

    # 6: the path itself is the limiter and the download finishes early
    if (
        feats["bandwidth_frac"] >= th["fc_bandwidth_frac"]
        and feats["early_margin_s"] >= th["early_margin_s"]
    ):
        margin = (feats["bandwidth_frac"] - th["fc_bandwidth_frac"]) / 0.15
        return ClassificationResult(FAST_CACHING, 0.5 + 0.5 * clip01(margin), feats)

    # 7: fallback — continuous delivery pinned at the encoding rate looks like
    # client-paced streaming no matter what the server intended (a bandwidth
    # bottleneck flattens every technique into this shape)
    lo, hi = th["encoding_band"]
    if (
        ratio is not None
        and lo <= ratio <= hi
        and feats["max_burst_gap_s"] < th["silent_gap_s"]
        and feats["span_coverage"] >= th["span_coverage"]
    ):
        return ClassificationResult(ENCODING_RATE, 0.6, feats)

    return ClassificationResult(UNKNOWN, 0.0, feats)
