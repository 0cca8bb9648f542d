"""Scenario files: INI descriptions of a device/service measurement setup.

A scenario pins down everything a run needs: the video, the delivery
technique and its parameters, the network path, the radio model, and the
playback power draw.  Keys may carry a `measured:` or `fitted:` prefix to
mark how the number was obtained (observed in the field vs. tuned here);
the prefix is stripped on load and has no behavioral effect.
"""

import configparser
import math
import re
from dataclasses import dataclass, replace
from importlib import resources

from .radio import PsmParams, RrcParams
from .media import QualityLevel, VideoSpec
from .session import DASH, TechniqueSpec
from .transport import PathSpec

RRC_3G = "RRC_3G"
PSM_WIFI = "PSM_WIFI"

_REQUIRED = object()


class ScenarioError(ValueError):
    """A scenario file is missing, malformed, or inconsistent."""


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ladder(text):
    levels = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"ladder entry {chunk!r} is not bandwidth:label:segment_s")
        try:
            levels.append(QualityLevel(float(parts[0]), parts[1], float(parts[2])))
        except ValueError as exc:
            raise ValueError(f"ladder entry {chunk!r}: {exc}") from None
    if not levels:
        raise ValueError("empty ladder")
    return tuple(levels)


class _Section:
    """A section's keys with origin prefixes stripped and typo detection."""

    def __init__(self, name, mapping):
        self.name = name
        self.raw = dict(mapping)

    def take(self, key, conv=str, default=_REQUIRED):
        for actual in (key, "measured:" + key, "fitted:" + key):
            if actual in self.raw:
                text = self.raw.pop(actual)
                try:
                    return conv(text)
                except (ValueError, TypeError) as exc:
                    raise ScenarioError(
                        f"[{self.name}] {actual} = {text!r}: {exc}"
                    ) from None
        if default is _REQUIRED:
            raise ScenarioError(f"[{self.name}] missing required key '{key}'")
        return default

    def finish(self):
        if self.raw:
            unknown = ", ".join(sorted(self.raw))
            raise ScenarioError(f"[{self.name}] unknown keys: {unknown}")


def _checked(sect, build, *args, **kw):
    """build(*args, **kw), its ValueError reported as a ScenarioError naming
    the section.  Take keys before the call: take() names its own errors."""
    try:
        return build(*args, **kw)
    except ValueError as exc:
        raise ScenarioError(f"[{sect.name}] {exc}") from None


@dataclass
class Scenario:
    name: str
    seed: int
    video: VideoSpec
    technique: TechniqueSpec
    path: PathSpec
    radio_kind: str
    rrc: RrcParams | None
    psm: PsmParams | None
    playback_current_ma: float
    watched_fraction: float = 1.0
    recv_capacity: int = 65536
    probe_interval_s: float = 5.0
    tick_s: float = 0.01
    container: str = ""

    def with_watched_fraction(self, fraction):
        return replace(self, watched_fraction=fraction)

    def with_path(self, **kwargs):
        return replace(self, path=replace(self.path, **kwargs))


def _build_video(sect):
    duration = sect.take("duration_s", int)
    rate = sect.take("avg_encoding_rate_bps", float)
    amplitude = sect.take("vbr_amplitude", float, 0.0)
    period = sect.take("vbr_period_s", float, 30.0)
    keyframe = sect.take("keyframe_spacing_bytes", int, 0)
    ladder_text = sect.take("ladder", str, None)
    sect.finish()
    ladder = _checked(sect, _parse_ladder, ladder_text) if ladder_text else None
    kw = {"keyframe_spacing": keyframe, "ladder": ladder}
    if amplitude:
        return _checked(sect, VideoSpec.vbr, duration, rate, amplitude, period, **kw)
    return _checked(sect, VideoSpec.constant, duration, rate, **kw)


# the TechniqueSpec fields whose scenario key has another name
_TECHNIQUE_KEYS = {"burst_size": "burst_size_bytes", "buffer_cap": "buffer_cap_bytes",
                   "dash_target_s": "dash_target_buffer_s"}


def _build_technique(sect):
    spec = TechniqueSpec(
        kind=sect.take("kind", str).upper(),
        fast_start_s=sect.take("fast_start_s", float),
        throttle_factor=sect.take("throttle_factor", float, None),
        burst_size=sect.take("burst_size_bytes", int, None),
        connection_mode=sect.take("connection_mode", str, "PERSISTENT").upper(),
        low_watermark_s=sect.take("low_watermark_s", float, None),
        high_watermark_s=sect.take("high_watermark_s", float, None),
        buffer_cap=sect.take("buffer_cap_bytes", int, None),
        keyframe_waste=sect.take("keyframe_waste", _parse_bool, False),
        reopen_headroom=sect.take("reopen_headroom_bytes", int, None),
        dash_target_s=sect.take("dash_target_buffer_s", float, 100.0),
        dash_safety=sect.take("dash_safety", float, 1.0),
        dash_refetch_depth=sect.take("dash_refetch_depth", int, 0),
        dash_replaced_counts_waste=sect.take(
            "dash_replaced_counts_waste", _parse_bool, False
        ),
    )
    sect.finish()
    try:
        return spec.validate()
    except ValueError as exc:
        # the error names fields; a scenario's reader knows its keys
        text = re.sub(r"\w+", lambda m: _TECHNIQUE_KEYS.get(m[0], m[0]), str(exc))
        raise ScenarioError(f"[{sect.name}] {text}") from None


def _build_radio(sect):
    kind = sect.take("kind", str).upper()
    if kind == RRC_3G:
        params = RrcParams(
            t1=sect.take("t1_s", float, 8.0),
            t2=sect.take("t2_s", float, 3.0),
            t3=sect.take("t3_s", float, 1740.0),
            current_dch=sect.take("current_dch_ma", float, 200.0),
            current_fach=sect.take("current_fach_ma", float, 150.0),
            current_pch=sect.take("current_pch_ma", float, 50.0),
            current_idle=sect.take("current_idle_ma", float, 0.0),
            promotion_delay=sect.take("promotion_delay_s", float, 0.0),
        )
    elif kind == PSM_WIFI:
        # Wi-Fi draw varies wildly between chipsets, so no defaults: every
        # scenario must state its own active/idle/sleep currents.
        params = PsmParams(
            current_active=sect.take("current_active_ma", float),
            current_idle=sect.take("current_idle_ma", float),
            current_sleep=sect.take("current_sleep_ma", float),
            beacon_interval=sect.take("beacon_interval_s", float, 0.1),
            idle_timeout=sect.take("idle_timeout_s", float, 0.1),
            beacon_wake=sect.take("beacon_wake_s", float, 0.002),
            cam_mode=sect.take("cam_mode", _parse_bool, False),
        )
    else:
        raise ScenarioError(f"[radio] unknown kind '{kind}' (RRC_3G or PSM_WIFI)")
    sect.finish()
    _checked(sect, params.validate)
    return (kind, params, None) if kind == RRC_3G else (kind, None, params)


def load_scenario(path):
    """Parse and validate a scenario INI file."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        inline_comment_prefixes=("#",),
        interpolation=None,
        strict=True,
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except configparser.Error as exc:
        raise ScenarioError(f"bad scenario syntax in {path}: {exc}") from None
    return _from_parser(parser, str(path))


def _from_parser(parser, origin):
    for required in ("scenario", "video", "technique", "path", "radio", "playback"):
        if not parser.has_section(required):
            raise ScenarioError(f"{origin}: missing [{required}] section")
    known = {"scenario", "video", "technique", "path", "transport", "radio", "playback"}
    extra = set(parser.sections()) - known
    if extra:
        raise ScenarioError(f"{origin}: unknown sections {sorted(extra)}")

    meta = _Section("scenario", parser["scenario"])
    name = meta.take("name", str)
    seed = meta.take("seed", int, 1)
    container = meta.take("container", str, "")
    meta.finish()

    video = _build_video(_Section("video", parser["video"]))
    technique = _build_technique(_Section("technique", parser["technique"]))

    psect = _Section("path", parser["path"])
    path_cfg = _checked(
        psect,
        PathSpec,
        bandwidth_bps=psect.take("bandwidth_bps", float),
        rtt_s=psect.take("rtt_s", float, 0.05),
        jitter=psect.take("jitter", float, 0.0),
    )
    psect.finish()

    tsect = _Section(
        "transport", parser["transport"] if parser.has_section("transport") else {}
    )
    recv_capacity = tsect.take("recv_capacity_bytes", int, 65536)
    probe_interval = tsect.take("probe_interval_s", float, 5.0)
    tick = tsect.take("tick_s", float, 0.01)
    tsect.finish()
    if recv_capacity <= 0:
        raise ScenarioError("[transport] recv_capacity_bytes must be positive")
    for key, value in (("probe_interval_s", probe_interval), ("tick_s", tick)):
        if not 0 < value < math.inf:
            raise ScenarioError(
                "[transport] %s must be positive and finite, not %r" % (key, value))

    radio_kind, rrc, psm = _build_radio(_Section("radio", parser["radio"]))

    play = _Section("playback", parser["playback"])
    playback_ma = play.take("playback_current_ma", float)
    watched = play.take("watched_fraction", float, 1.0)
    play.finish()
    if not 0 <= playback_ma < math.inf:
        raise ScenarioError(
            "[playback] playback_current_ma must be >= 0 and finite, not %r" % (playback_ma,))
    if not 0.0 < watched <= 1.0:
        raise ScenarioError("[playback] watched_fraction must be in (0, 1]")

    if technique.kind == DASH and not video.ladder:
        raise ScenarioError("DASH scenarios need a ladder in [video]")

    return Scenario(
        name=name,
        seed=seed,
        video=video,
        technique=technique,
        path=path_cfg,
        radio_kind=radio_kind,
        rrc=rrc,
        psm=psm,
        playback_current_ma=playback_ma,
        watched_fraction=watched,
        recv_capacity=recv_capacity,
        probe_interval_s=probe_interval,
        tick_s=tick,
        container=container,
    )


def builtin_scenario_names():
    root = resources.files("streamsim") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def load_builtin(name):
    """Load one of the scenarios shipped with the package by bare name."""
    root = resources.files("streamsim") / "scenarios"
    candidate = root / f"{name}.ini"
    if not candidate.is_file():
        known = ", ".join(builtin_scenario_names())
        raise ScenarioError(f"no builtin scenario '{name}' (have: {known})")
    with resources.as_file(candidate) as real:
        return load_scenario(real)
