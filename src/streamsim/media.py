"""Media of a clip, and the client's books of it.

VideoSpec is a clip as a per-second byte schedule, with an optional quality
ladder for DASH.  A MediaBuffer books the bytes a session receives: every
one that arrived (received, as billed on the wire) is held (pos - consumed),
played (consumed) or wasted.  Progressive delivery holds one growing
interval of the clip, DASH whole segments (SegmentBuffer).
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate


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

    def cum_bytes_at(self, times):
        """cum_bytes of each of `times` (in time order), as a list; those in
        (0, duration_s) in bulk."""
        lo = bisect_right(times, 0)
        hi = bisect_left(times, self.duration_s, lo)
        if lo or hi < len(times):
            clip_end = [float(self.total_bytes)] * (len(times) - hi)
            return [0.0] * lo + self.cum_bytes_at(times[lo:hi]) + clip_end
        cum, schedule = self._cum, self.schedule
        return [cum[i] + (t - i) * schedule[i] for t, i in zip(times, map(int, times))]

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


class MediaBuffer:
    """Progressive books: the client holds media [0, pos) of the clip in bytes.

    After a reconnect the first `dup` bytes to arrive repeat held media (the
    partial key frame) and are wasted.  Playback may begin once `ready_at`
    bytes are in; a store `cap` bounds pos - consumed.
    """

    def __init__(self, video, fast_start_s, cap):
        self.video, self.cap = video, cap
        self.received = 0
        self.pos = 0
        self.dup = 0
        self.consumed = 0.0
        self.wasted = 0.0
        self.ready_at = min(int(round(video.cum_bytes(fast_start_s))), video.total_bytes)
        if cap is not None and self.ready_at > cap:
            raise ValueError(
                "fast start needs %d B buffered before playback begins, but "
                "buffer_cap holds at most %d B" % (self.ready_at, cap)
            )

    def arrive(self, nbytes):
        """Book nbytes that arrived: the first dup of them repeat held media."""
        dup = min(self.dup, nbytes)
        self.received += nbytes
        self.pos += nbytes - dup
        if dup:
            self.dup -= dup
            self.wasted += dup

    def ready(self):
        """Whether playback may begin."""
        return self.pos >= self.ready_at

    def delivered(self):
        """Media seconds from the start of the clip that have arrived."""
        return self.video.media_time(self.pos)

    def consumed_at(self, playhead, pos):
        """Bytes behind `playhead` while media [0, pos) is held."""
        consumed = self.video.cum_bytes(playhead)
        return consumed if consumed < pos else float(pos)  # min(), without the call

    def consumed_each(self, playheads, positions):
        """consumed_at of each playhead and pos, as a list."""
        return [c if c < p else float(p) for c, p in zip(self.video.cum_bytes_at(playheads), positions)]

    def held(self, consumed):
        """Bytes in the store while `consumed` of them have played."""
        return self.pos - consumed

    def limit(self, pos, consumed, dup):
        """Most a tick may deliver into a capped store; None without a cap."""
        if self.cap is None:
            return None
        return dup + max(0, int(self.cap - (pos - consumed)))

    def check(self):
        drift = self.received - self.pos - self.wasted
        if abs(drift) > 1e-6:
            raise AssertionError("byte accounting drift: %r" % drift)
        buffered = self.held(self.consumed)
        if buffered < -1e-6:
            raise AssertionError("negative playback buffer: %r" % buffered)
        if self.cap is not None and buffered > self.cap + 1e-6:
            raise AssertionError(
                "playback store exceeded its cap: %r > %r" % (buffered, self.cap)
            )


class SegmentBuffer(MediaBuffer):
    """Segmented books: whole segments (start, length, nbytes) in play order.

    A segment's media counts once all its bytes are in; until then they are
    held but play nothing.  Playback may begin once `ready_at` media seconds
    are in.  `spent[k]` is the bytes of the first k segments, summed in order
    as a float, so consumed_at() adds what a scan of the list adds.
    """

    def __init__(self, video, fast_start_s, cap):
        super().__init__(video, 0.0, cap)
        self.ready_at = min(fast_start_s, video.duration_s)
        self.segments = []
        self.ends = []
        self.spent = [0.0]
        self.media = 0  # sum of the segment lengths, added in order

    def add(self, start, length, nbytes):
        self.segments.append((start, length, nbytes))
        self.ends.append(start + length)
        self.spent.append(self.spent[-1] + nbytes)
        self.media += length

    def waste(self, nbytes):
        """nbytes that arrived will never play."""
        self.pos -= nbytes
        self.wasted += nbytes

    def replace(self, i, nbytes):
        """Segment i now holds a copy of nbytes; the old copy is wasted."""
        start, length, old = self.segments[i]
        self.waste(old)
        self.segments[i] = (start, length, nbytes)
        self.spent[i:] = accumulate((n for _, _, n in self.segments[i:]), initial=self.spent[i])

    def ready(self):
        return self.media >= self.ready_at

    def consumed_each(self, playheads, positions):
        return list(map(self.consumed_at, playheads, positions))

    def delivered(self):
        return self.media

    def consumed_at(self, playhead, pos):
        # every segment that ends by the playhead is played whole (their
        # ends never fall); the rest play in proportion, up to the first one
        # the playhead has not reached
        k = bisect_right(self.ends, playhead)
        total = self.spent[k]
        for start, length, nbytes in self.segments[k:]:
            if playhead <= start:
                break
            total += nbytes * (playhead - start) / length
        return total
