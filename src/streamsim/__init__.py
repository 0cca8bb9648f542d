"""Deterministic simulator and trace analyzer for mobile video streaming.

Simulates how streaming services actually move bytes (client-paced reads,
server throttling, on-off bursts, full-rate caching, segmented adaptive
delivery), prices the resulting packet timeline with 3G RRC and Wi-Fi PSM
radio models, and recovers the delivery technique back from the timeline.
"""

from .analysis import (
    Burst,
    ClassificationResult,
    burst_cdf,
    classify,
    estimate_buffer,
    estimate_fast_start,
    estimate_throttle_factor,
    find_rate_knee,
    group_bursts,
)
from .harness import (
    RunReport,
    audit,
    emit_report,
    expected_label,
    run_scenario,
    sweep_watched_fraction,
)
from .kernel import Kernel
from .radio import (
    BeaconTrain,
    EnergyReport,
    PsmParams,
    RrcParams,
    StateSegment,
    clip_segments,
    expand_segments,
    integrate,
    psm_drive,
    rrc_drive,
    streaming_current,
)
from .scenario import Scenario, ScenarioError, load_builtin, load_scenario
from .media import QualityLevel, VideoSpec
from .session import DeadlockError, SessionMetrics, StreamingSession, TechniqueSpec
from .transport import PacketRecord, PathSpec, Transport, read_timeline_csv, write_timeline_csv

__version__ = "0.1.0"

__all__ = [
    "BeaconTrain",
    "Burst",
    "ClassificationResult",
    "DeadlockError",
    "EnergyReport",
    "Kernel",
    "PacketRecord",
    "PathSpec",
    "PsmParams",
    "QualityLevel",
    "RrcParams",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "SessionMetrics",
    "StateSegment",
    "StreamingSession",
    "TechniqueSpec",
    "Transport",
    "VideoSpec",
    "audit",
    "burst_cdf",
    "classify",
    "clip_segments",
    "emit_report",
    "estimate_buffer",
    "estimate_fast_start",
    "estimate_throttle_factor",
    "expand_segments",
    "expected_label",
    "find_rate_knee",
    "group_bursts",
    "integrate",
    "load_builtin",
    "load_scenario",
    "psm_drive",
    "read_timeline_csv",
    "rrc_drive",
    "run_scenario",
    "streaming_current",
    "sweep_watched_fraction",
    "write_timeline_csv",
]
