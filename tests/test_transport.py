import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsim.kernel import Kernel
from streamsim.transport import (
    CLOSE_FIN,
    CLOSE_RST,
    DATA,
    DOWN,
    OPEN,
    REQUEST,
    STATE_CLOSED,
    UP,
    ZERO_WINDOW,
    ZERO_WINDOW_AD,
    ZERO_WINDOW_PROBE,
    PacketRecord,
    PathSpec,
    Timeline,
    Transport,
    read_timeline_csv,
    write_timeline_csv,
)

TICK = 0.01


def make_conn(bandwidth_bps=6_000_000, rtt_s=0.05, jitter=0.0, seed=0,
              recv_capacity=1 << 30, probe_interval=5.0):
    kernel = Kernel()
    transport = Transport(PathSpec(bandwidth_bps, rtt_s, jitter), kernel, seed=seed)
    conn = transport.open(recv_capacity=recv_capacity, probe_interval=probe_interval)
    return kernel, transport, conn


def drive(kernel, conn, ticks, dt=TICK):
    for i in range(ticks):
        kernel.run_until((i + 1) * dt)
        conn.advance(dt)


def data_records(transport):
    return [r for r in transport.records if r.kind == DATA]


def test_open_emits_handshake_and_request():
    kernel, transport, conn = make_conn()
    kinds = [r.kind for r in transport.records]
    assert kinds == [OPEN, REQUEST]
    assert all(r.direction == UP for r in transport.records)
    assert all(r.payload == 0 for r in transport.records)


def test_no_data_before_one_round_trip():
    kernel, transport, conn = make_conn(rtt_s=0.05)
    conn.enqueue(100_000)
    drive(kernel, conn, 5)  # up to t = 0.05
    assert data_records(transport) == []


def test_pacing_matches_path_rate():
    # 6 Mbps is 7500 bytes per 10 ms tick; 1 MiB should take 140 sends,
    # the first one tick after the request round trip completes.
    kernel, transport, conn = make_conn(bandwidth_bps=6_000_000, rtt_s=0.05)
    conn.enqueue(1 << 20)
    drive(kernel, conn, 200)
    data = data_records(transport)
    assert len(data) == 140
    assert data[0].time == pytest.approx(0.06, abs=1e-9)
    # the sub-byte carry wobbles individual ticks by at most one byte
    assert all(7499 <= r.payload <= 7501 for r in data[:-1])
    assert data[-1].time == pytest.approx(1.45, abs=1e-9)
    assert data[-1].payload == 6076
    assert conn.delivered_total == 1 << 20


def test_fractional_rate_carry_has_no_long_term_drift():
    # A rate that does not divide into whole bytes per tick must neither
    # lose nor invent bytes over a long window.
    kernel, transport, conn = make_conn(bandwidth_bps=555_555, rtt_s=0.0)
    conn.enqueue(10 << 20)
    ticks = 2000
    drive(kernel, conn, ticks)
    expected = 555_555 / 8.0 * (ticks * TICK)
    assert abs(conn.delivered_total - expected) <= 1.0


def test_rate_cap_limits_below_path_bandwidth():
    kernel, transport, conn = make_conn(bandwidth_bps=6_000_000, rtt_s=0.0)
    conn.enqueue(1 << 20)
    conn.set_rate_cap(400_000)
    drive(kernel, conn, 100)
    # 400 kbps for 1 s is 50 kB; allow the one-byte carry rounding.
    assert abs(conn.delivered_total - 50_000) <= 1.0


def test_per_tick_delivery_limit_is_respected():
    kernel, transport, conn = make_conn(bandwidth_bps=6_000_000, rtt_s=0.0)
    conn.enqueue(1 << 20)
    for i in range(50):
        kernel.run_until((i + 1) * TICK)
        for rec in conn.advance(TICK, limit=3000):
            assert rec.payload <= 3000
    assert conn.delivered_total == 50 * 3000


def test_receive_buffer_fill_advertises_zero_window():
    kernel, transport, conn = make_conn(recv_capacity=10_000)
    conn.enqueue(50_000)
    drive(kernel, conn, 600)  # 6 s, no reads
    assert conn.delivered_total == 10_000
    ads = [r for r in transport.records if r.kind == ZERO_WINDOW_AD]
    probes = [r for r in transport.records if r.kind == ZERO_WINDOW_PROBE]
    # One advertisement when the buffer fills at t = 0.07, then a
    # probe/advertisement pair five seconds later.
    assert [r.time for r in ads] == [0.07, 5.07]
    assert [r.time for r in probes] == [5.07]
    assert probes[0].direction == DOWN
    assert ads[0].direction == UP


def test_probe_cadence_continues_while_blocked():
    kernel, transport, conn = make_conn(recv_capacity=10_000, probe_interval=5.0)
    conn.enqueue(50_000)
    drive(kernel, conn, 1700)  # 17 s
    probes = [r.time for r in transport.records if r.kind == ZERO_WINDOW_PROBE]
    assert probes == [5.07, 10.07, 15.07]


def test_read_reopens_window_after_round_trip():
    kernel, transport, conn = make_conn(recv_capacity=10_000, rtt_s=0.05)
    conn.enqueue(50_000)
    drive(kernel, conn, 600)
    assert conn.read(4000) == 4000
    assert conn.recv_occupancy == 6000
    drive_from = int(round(kernel.now / TICK))
    for i in range(drive_from, drive_from + 20):
        kernel.run_until((i + 1) * TICK)
        conn.advance(TICK)
    data = data_records(transport)
    # The refill lands one round trip after the window reopened.
    assert data[-1].time == pytest.approx(6.06, abs=1e-9)
    assert data[-1].payload == 4000
    assert conn.delivered_total == 14_000
    # Reopening cancels the pending probe cycle until the buffer refills.
    probes = [r.time for r in transport.records if r.kind == ZERO_WINDOW_PROBE]
    assert probes == [5.07]


def test_read_more_than_buffered_returns_what_is_there():
    kernel, transport, conn = make_conn(recv_capacity=10_000)
    conn.enqueue(6000)
    drive(kernel, conn, 10)
    assert conn.read(99_999) == 6000
    assert conn.recv_occupancy == 0


def test_close_rst_and_fin_records():
    for mode, kind in (("RST", CLOSE_RST), ("FIN", CLOSE_FIN)):
        kernel, transport, conn = make_conn()
        conn.enqueue(1000)
        conn.close(mode)
        assert transport.records[-1].kind == kind
        assert conn.state == STATE_CLOSED
        with pytest.raises(ValueError):
            conn.close(mode)


def test_close_drops_unsent_queue():
    kernel, transport, conn = make_conn()
    conn.enqueue(1 << 20)
    drive(kernel, conn, 20)
    sent_before = conn.delivered_total
    conn.close("RST")
    drive(kernel, conn, 0)
    assert conn.advance(TICK) == []
    assert conn.delivered_total == sent_before


def test_enqueue_on_closed_connection_rejected():
    kernel, transport, conn = make_conn()
    conn.close("FIN")
    with pytest.raises(ValueError):
        conn.enqueue(1)


def test_advance_rejects_nonpositive_dt():
    kernel, transport, conn = make_conn()
    with pytest.raises(ValueError):
        conn.advance(0.0)


def test_second_connection_gets_distinct_id():
    kernel, transport, conn = make_conn()
    other = transport.open(recv_capacity=1 << 20)
    assert other.id == conn.id + 1
    ids = {r.conn_id for r in transport.records}
    assert ids == {conn.id, other.id}


def test_jitter_preserves_sorted_timeline():
    kernel, transport, conn = make_conn(jitter=0.3, seed=11)
    conn.enqueue(2 << 20)
    drive(kernel, conn, 400)
    times = [r.time for r in transport.records]
    assert times == sorted(times)


def test_jitter_is_deterministic_per_seed():
    traces = []
    for _ in range(2):
        kernel, transport, conn = make_conn(jitter=0.3, seed=42)
        conn.enqueue(1 << 20)
        drive(kernel, conn, 300)
        traces.append([(r.time, r.payload, r.kind) for r in transport.records])
    assert traces[0] == traces[1]

    kernel, transport, conn = make_conn(jitter=0.3, seed=43)
    conn.enqueue(1 << 20)
    drive(kernel, conn, 300)
    other = [(r.time, r.payload, r.kind) for r in transport.records]
    assert other != traces[0]


def test_timeline_csv_round_trip(tmp_path):
    kernel, transport, conn = make_conn()
    conn.enqueue(300_000)
    drive(kernel, conn, 100)
    conn.close("FIN")
    path = tmp_path / "trace.csv"
    write_timeline_csv(transport.records, path)
    back = read_timeline_csv(path)
    assert [(r.direction, r.payload, r.kind, r.conn_id) for r in back] == [
        (r.direction, r.payload, r.kind, r.conn_id) for r in transport.records
    ]
    # timestamps survive to the microsecond the format stores
    for a, b in zip(back, transport.records):
        assert a.time == pytest.approx(b.time, abs=5e-7)
    # a second write/read cycle is byte-stable
    path2 = tmp_path / "trace2.csv"
    write_timeline_csv(back, path2)
    again = read_timeline_csv(path2)
    assert again == back


def test_timeline_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_timeline_csv(path)


def test_timeline_reads_as_a_list_of_records():
    records = [
        PacketRecord(0.01 * i, DOWN if i % 3 else UP, 100 * i, DATA if i % 3 else REQUEST, 1 + i // 4)
        for i in range(10)
    ]
    columns = [[getattr(r, f) for r in records]
               for f in ("time", "direction", "payload", "kind", "conn_id")]
    timeline = Timeline(*columns)
    assert len(timeline) == 10 and len(Timeline()) == 0
    assert timeline[0] == records[0] and timeline[-1] == records[-1] and timeline[-3] == records[-3]
    assert timeline[2:7] == records[2:7] and timeline[::-2] == records[::-2]
    assert list(timeline) == [r for r in timeline] == records
    assert timeline == records and records == timeline and timeline != records[:-1]
    assert timeline == Timeline(*columns) and timeline != Timeline()
    moved = Timeline(*columns)
    moved.payload[4] += 1
    assert timeline != moved and moved != records
    # a copy has columns of its own
    copy = timeline.copy()
    copy.time[0] = 5.0
    copy.append(PacketRecord(1.0, UP, 0, CLOSE_FIN, 3))
    assert len(timeline) == 10 and timeline[0].time == 0.0 and len(copy) == 11
    # the records are built once, and again after an append or a pop
    rows = timeline.rows()
    assert timeline.rows() is rows and timeline[:] == rows
    extra = PacketRecord(0.5, UP, 0, CLOSE_RST, 3)
    timeline.append(extra)
    assert timeline.rows() is not rows and timeline[-1] == extra and len(timeline) == 11
    rows = timeline.rows()
    assert timeline.pop() == extra
    assert timeline.rows() is not rows and timeline == records


def test_timeline_columns_of_unequal_length_are_rejected():
    with pytest.raises(ValueError, match="time 2, direction 1, payload 1, kind 1, conn 1"):
        Timeline([0.0, 1.0], ["down"], [1], ["DATA"], [1])
    with pytest.raises(ValueError, match="time 1, direction 1, payload 1, kind 1, conn 0"):
        Timeline([0.0], [DOWN], [1], [DATA], [])


def assert_runs(timeline, expected):
    """The runs of `timeline` are canonical and hold `expected`, the
    (direction, payload, kind, conn) of each record in order."""
    runs = list(timeline.runs())
    ends = [end for _, end, *_ in runs]
    assert [start for start, *_ in runs] == [0, *ends][:len(runs)]
    assert all(start < end for start, end, *_ in runs)
    assert all(a[2:] != b[2:] for a, b in zip(runs, runs[1:]))
    assert (ends or [0])[-1] == len(timeline) == len(timeline.payload)
    time, direction, payload, kind, conn = timeline.columns()
    assert list(zip(direction, payload, kind, conn)) == expected
    assert Timeline(*timeline.columns()) == timeline
    assert timeline == list(map(PacketRecord, time, direction, payload, kind, conn))


keys = st.tuples(st.sampled_from([DOWN, UP]), st.sampled_from([DATA, REQUEST, ZERO_WINDOW_AD]),
                 st.integers(1, 2))
timeline_ops = st.lists(st.one_of(
    st.tuples(st.just("emit_run"), keys, st.lists(st.integers(0, 3_000), max_size=4),
              st.booleans()),
    st.tuples(st.just("append"), keys),
    st.tuples(st.just("pop")),
    st.tuples(st.just("copy")),
    st.tuples(st.just("detached"), keys),
), max_size=25)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 0.5]), timeline_ops)
def test_timeline_runs_stay_canonical(jitter, ops):
    transport = Transport(PathSpec(6_000_000, jitter=jitter), Kernel(), seed=3)
    expected = []
    t = 0.0
    for op, *args in ops:
        timeline = transport.records
        t += 0.1
        if op == "emit_run":
            (direction, kind, conn), payloads, ad = args
            transport.emit_run(direction, kind, conn, [t + 0.01 * i for i in range(len(payloads))],
                               payloads, ad)
            if payloads:
                expected += [(direction, n, kind, conn) for n in payloads]
                expected += [(UP, 0, ZERO_WINDOW_AD, conn)] * ad
        elif op == "append":
            (direction, kind, conn), = args
            timeline.append(PacketRecord(t, direction, 7, kind, conn))
            expected.append((direction, 7, kind, conn))
        elif op == "pop" and expected:
            last = timeline[-1]
            assert timeline.pop() == last
            assert (last.direction, last.payload, last.kind, last.conn_id) == expected.pop()
        elif op == "copy":
            transport.records = timeline.copy()
            assert transport.records == timeline
        elif op == "detached":
            (direction, kind, conn), = args
            before = timeline.copy()
            record = transport.detached(t, direction, 5, kind, conn)
            assert (record.direction, record.payload, record.kind, record.conn_id) == (
                direction, 5, kind, conn)
            assert timeline == before
        assert_runs(transport.records, expected)


def test_emit_drops_the_records_built_before_it():
    kernel, transport, conn = make_conn()
    before = list(transport.records)
    assert transport.records.rows() == before
    record = transport.emit(0.5, DOWN, 1_000, DATA, conn.id)
    assert record == transport.records[-1] and transport.records == before + [record]


def test_path_spec_validation():
    with pytest.raises(ValueError):
        PathSpec(0)
    with pytest.raises(ValueError):
        PathSpec(1e6, rtt_s=-0.1)
    with pytest.raises(ValueError):
        PathSpec(1e6, jitter=1.0)
    # a NaN rtt ran to the end silently, and a NaN bandwidth failed with
    # "cannot convert float NaN to integer"
    for kw, name in ((dict(bandwidth_bps=math.nan), "bandwidth_bps"),
                     (dict(bandwidth_bps=math.inf), "bandwidth_bps"),
                     (dict(bandwidth_bps=1e6, rtt_s=math.nan), "rtt_s"),
                     (dict(bandwidth_bps=1e6, rtt_s=math.inf), "rtt_s"),
                     (dict(bandwidth_bps=1e6, jitter=math.nan), "jitter")):
        with pytest.raises(ValueError, match=name):
            PathSpec(**kw)


def test_random_workloads_conserve_bytes():
    rng = random.Random(3)
    for trial in range(10):
        bw = rng.choice([250_000, 1_000_000, 6_000_000])
        cap = rng.choice([8192, 65_536, 1 << 20])
        kernel, transport, conn = make_conn(bandwidth_bps=bw, recv_capacity=cap)
        total = rng.randrange(10_000, 500_000)
        conn.enqueue(total)
        read_back = 0
        for i in range(600):
            kernel.run_until((i + 1) * TICK)
            conn.advance(TICK)
            if rng.random() < 0.5:
                read_back += conn.read(rng.randrange(1, 20_000))
        assert conn.delivered_total == read_back + conn.recv_occupancy, f"trial {trial}"
        assert conn.delivered_total == sum(
            r.payload for r in transport.records if r.kind == DATA
        )
        assert conn.delivered_total <= total


def _conn_state(conn):
    return (
        conn.state, conn.send_queue, conn.recv_occupancy, conn.window_state,
        conn.delivered_total, conn._rate_frac, conn._next_probe, conn._resume_at,
    )


def test_blocked_connection_next_acts_at_its_probe():
    kernel, transport, conn = make_conn(recv_capacity=10_000)
    conn.enqueue(50_000)
    drive(kernel, conn, 100)  # full since t = 0.07
    assert conn.next_action(TICK) == pytest.approx(5.07)
    conn.close("RST")
    assert conn.next_action(TICK) == float("inf")


def test_advance_is_a_no_op_before_next_action():
    rng = random.Random(5)
    quiet = 0
    for trial in range(30):
        kernel, transport, conn = make_conn(
            bandwidth_bps=rng.choice([6_000_000, 600_000, 1_000]),
            rtt_s=rng.choice([0.0, 0.05, 0.3]),
            recv_capacity=rng.choice([100, 10_000, 65_536]),
            probe_interval=rng.choice([0.5, 5.0]),
        )
        conn.enqueue(rng.choice([0, 30_000, 500_000]))
        conn.set_rate_cap(rng.choice([None, 0, 600, 400_000]))
        wake = conn.next_action(TICK)
        for i in range(800):
            now = (i + 1) * TICK
            kernel.run_until(now)
            before = _conn_state(conn)
            out = conn.advance(TICK)
            if now < wake:
                assert out == [] and _conn_state(conn) == before, f"trial {trial} t={now}"
                quiet += 1
            if rng.random() < 0.02:
                conn.read(rng.choice([1_000, 1 << 30]))
            if rng.random() < 0.005:
                conn.enqueue(rng.choice([1_000, 100_000]))
            if rng.random() < 0.005:
                conn.request()
            wake = conn.next_action(TICK)
    assert quiet > 5_000


@pytest.mark.parametrize("jitter", [0.0, 0.99])
def test_run_emitter_matches_emit_one_by_one(jitter):
    # jitter 0.99 can pull a record before the one emitted ahead of it, so
    # the timeline clamp fires; both sides draw from one seed.  Without
    # jitter, the first two runs keep their times without emit_run's loop; the
    # third starts before the last time emitted and the fourth steps back,
    # so both need the clamp and take the loop.
    rng = random.Random(8)
    times = [0.01 * (i + 1) + rng.choice([0.0, 0.0, 0.004, 2.0]) * (i > 20) for i in range(80)]
    times.sort()
    sizes = [rng.randrange(1, 9_000) for _ in times]
    parts = [slice(0, 30), slice(30, 60), slice(50, 60), slice(79, 59, -1)]
    sides = []
    for by_run in (False, True):
        transport = Transport(PathSpec(6_000_000, jitter=jitter), Kernel(), seed=21)
        for part in parts:
            if by_run:
                transport.emit_run(DOWN, DATA, 1, times[part], sizes[part])
            else:
                for t, n in zip(times[part], sizes[part]):
                    transport.emit(t, DOWN, n, DATA, 1)
            # a control record between the runs shares the jitter stream
            transport.emit(times[part][-1], UP, 0, ZERO_WINDOW_AD, 1)
        sides.append(transport.records)
    assert sides[0] == sides[1]
    stamps = [r.time for r in sides[1]]
    assert stamps == sorted(stamps)
    assert any(a == b for a, b in zip(stamps, stamps[1:]))  # clamped to _last_emit


def test_jittered_run_draws_what_random_uniform_draws():
    # emit_run draws Random.uniform(-1.0, 1.0) as -1.0 + 2.0 * random();
    # the stamps are rebuilt here with uniform itself.  At jitter 0.99 the
    # records after the jump to 2.0 s may land behind the one before, so
    # the clamp to the last stamp fires too.
    times = [0.01 * (i + 1) for i in range(40)] + [2.0 + 0.01 * i for i in range(40)]
    transport = Transport(PathSpec(6_000_000, jitter=0.99), Kernel(), seed=5)
    transport.emit_run(DOWN, DATA, 1, times, [1_000] * len(times))
    rng = random.Random(5)
    nominal = last = 0.0
    expected, clamped = [], 0
    for t in times:
        stamp = t + rng.uniform(-1.0, 1.0) * 0.99 * max(0.0, t - nominal)
        nominal = t
        clamped += stamp < last
        last = max(last, stamp)
        expected.append(last)
    assert [r.time for r in transport.records] == expected
    assert clamped > 0


def test_window_fill_in_a_span_matches_advance():
    # ENCODING_RATE on a zero rtt and a 4 kB window: every tick sends the
    # space the last read freed, filling the window.  Through the still
    # seconds the client reads nothing, so the window stays shut and its
    # probe pending.  Spans play the fills; every-tick playback runs each
    # through advance().
    from streamsim.session import (
        ENCODING_RATE, DeadlockError, StreamingSession, TechniqueSpec, VideoSpec,
    )

    def at_horizon(every_tick):
        video = VideoSpec([62_500] * 3 + [0] * 2 + [62_500] * 5)
        session = StreamingSession(
            video, TechniqueSpec(ENCODING_RATE, fast_start_s=1.0),
            PathSpec(6_000_000, rtt_s=0.0, jitter=0.3), recv_capacity=4_000,
            seed=4, max_sim_time=4.5,
        )
        if every_tick:
            session._play_quiet = lambda now: now + session.tick_s
        with pytest.raises(DeadlockError):
            session.run()
        return session

    spans, ticks = at_horizon(False), at_horizon(True)
    assert spans.kernel.executed <= 10 < ticks.kernel.executed
    assert spans.transport.records == ticks.transport.records
    kinds = [r.kind for r in spans.transport.records]
    pairs = sum(a == DATA and b == ZERO_WINDOW_AD for a, b in zip(kinds, kinds[1:]))
    assert pairs > 100
    assert spans.conn.window_state == ZERO_WINDOW and spans.conn._next_probe is not None
    assert _conn_state(spans.conn) == _conn_state(ticks.conn)
