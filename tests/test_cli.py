import subprocess
import sys

import pytest

from streamsim.cli import main
from streamsim.transport import DATA, DOWN, PacketRecord, write_timeline_csv

MINI = """\
[scenario]
name = mini

[video]
duration_s = 60
avg_encoding_rate_bps = 500000

[technique]
kind = {technique}

[path]
bandwidth_bps = {bandwidth}

[radio]
kind = RRC_3G

[playback]
playback_current_ma = 150
"""


def mini_scenario(tmp_path, technique="FAST_CACHING\nfast_start_s = 5",
                  bandwidth="6000000"):
    p = tmp_path / "mini.ini"
    p.write_text(MINI.format(technique=technique, bandwidth=bandwidth))
    return p


def test_list_prints_every_builtin(capsys):
    assert main(["list"]) == 0
    names = capsys.readouterr().out.strip().splitlines()
    assert len(names) == 20
    assert "compare_encoding_3g" in names


def test_run_builtin_prints_a_table(capsys):
    assert main(["run", "compare_fast_caching_3g"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario")
    assert "compare_fast_caching_3g" in out
    assert "FAST_CACHING" in out


def test_run_csv_format_and_artifacts(tmp_path, capsys):
    code = main(
        ["run", "compare_fast_caching_3g", "--format", "csv", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("scenario,technique")
    assert (tmp_path / "compare_fast_caching_3g.timeline.csv").is_file()


def test_run_scenario_file_path(tmp_path, capsys):
    assert main(["run", str(mini_scenario(tmp_path))]) == 0
    assert "mini" in capsys.readouterr().out


def test_unknown_scenario_is_a_clean_error(capsys):
    assert main(["run", "no_such_scenario"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_the_requested_fractions(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            str(mini_scenario(tmp_path)),
            "--fractions",
            "0.5,1.0",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.500,")


def test_sweep_rejects_bad_fraction_lists(tmp_path, capsys):
    assert main(["sweep", str(mini_scenario(tmp_path)), "--fractions", "0.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_names_a_fraction_that_is_not_a_number(tmp_path, capsys):
    assert main(["sweep", str(mini_scenario(tmp_path)), "--fractions", "0.1,abc"]) == 1
    assert capsys.readouterr().err == "error: --fractions: 'abc' is not a number\n"


def test_analyze_recovers_the_technique_from_a_trace(tmp_path, capsys):
    assert main(["run", str(mini_scenario(tmp_path)), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(
        [
            "analyze",
            str(tmp_path / "mini.timeline.csv"),
            "--rate",
            "500000",
            "--bandwidth",
            "6000000",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "label       FAST_CACHING" in out
    assert "confidence" in out


def test_analyze_reports_an_out_of_order_trace(tmp_path, capsys):
    trace = tmp_path / "shuffled.timeline.csv"
    write_timeline_csv(
        [PacketRecord(t, DOWN, 1000, DATA, 1) for t in (100.0, 0.0, 104.5)], trace
    )
    code = main(["analyze", str(trace), "--rate", "500000", "--bandwidth", "6000000"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: packet timeline must be sorted by time\n"
    assert captured.out == ""


def test_analyze_requires_rate_and_bandwidth(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "whatever.csv"])
    assert err.value.code == 2


def test_validate_passes_a_known_good_scenario(capsys):
    assert main(["validate", "compare_fast_caching_3g"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok    compare_fast_caching_3g:")


def test_validate_flags_a_scenario_the_classifier_rejects(tmp_path, capsys):
    # throttling to 1.25x the encoding rate over a path that only carries
    # 1.0x collapses into client-paced delivery; the classifier calls it
    # ENCODING_RATE, which is a self-check failure for a THROTTLE scenario
    bottled = mini_scenario(
        tmp_path,
        technique="THROTTLE\nfast_start_s = 5\nthrottle_factor = 1.25",
        bandwidth="500000",
    )
    assert main(["validate", str(bottled)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1 of 1 scenarios failed" in out


def test_validate_names_the_on_off_label_it_expected(tmp_path, capsys):
    # watermarks 2 s apart on a fast path: the pauses are too short for the
    # classifier's silent gaps, so it sees a client-paced stream
    choppy = mini_scenario(
        tmp_path,
        technique="ON_OFF\nfast_start_s = 5\nlow_watermark_s = 2\nhigh_watermark_s = 4",
    )
    assert main(["validate", str(choppy)]) == 1
    out = capsys.readouterr().out
    assert "expected ON_OFF_PERSISTENT" in out
    assert "1 of 1 scenarios failed" in out


def test_validate_reports_a_rejected_session_and_goes_on(tmp_path, capsys):
    # a fast start of 30 s at 500 kb/s needs 1.875 MB, more than a 1 MB store
    capped = mini_scenario(
        tmp_path,
        technique="THROTTLE\nfast_start_s = 30\nthrottle_factor = 2.0\nbuffer_cap_bytes = 1000000",
    )
    assert main(["validate", str(capped), "compare_fast_caching_3g"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL  {capped}: fast start needs 1875000 B buffered" in out
    assert "ok    compare_fast_caching_3g:" in out
    assert "1 of 2 scenarios failed" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "streamsim", "list"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "compare_encoding_3g" in proc.stdout
