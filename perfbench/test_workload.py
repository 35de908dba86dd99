"""Tests of the benchmark's own parts: the generator, the span arithmetic and
the host-speed scaling.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import gc
import random
import sys
import tempfile
from pathlib import Path

import calibration
import workload
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def test_data_matches_the_test_suite_clinic_net():
    for name in ("clinic.pnml", "heuristics.csv"):
        assert (workload.DATA / name).read_bytes() == (ROOT / "tests" / "data" / name).read_bytes()


def test_steady_at_seed_99_reproduces_the_test_simulator():
    import simulate
    from caseflow.heuristics import load_heuristics
    from caseflow.model import parse_pnml

    net = parse_pnml((ROOT / "tests" / "data" / "clinic.pnml").read_text())
    table = load_heuristics((ROOT / "tests" / "data" / "heuristics.csv").read_text())
    expected = simulate.simulate_log(
        net, table, random.Random(99), 1200, gap_range=(15, 35), weights={"M": 3, "G": 3}
    )
    params = workload.WORKLOADS["steady"]
    got = workload.simulate_log(
        workload.read_net((workload.DATA / "clinic.pnml").read_text()),
        workload.read_windows((workload.DATA / "heuristics.csv").read_text()),
        random.Random(99), params["cases"], params["gap"],
    )
    assert len(got) == 11_658
    assert [(e.timestamp, e.activity, e.case_id) for e in got] == [
        (e.timestamp, e.activity, e.case_id) for e in expected
    ]


def test_same_seed_same_files_other_seed_other_stream():
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, \
            tempfile.TemporaryDirectory() as c:
        first = workload.generate("wide", 5, Path(a))
        again = workload.generate("wide", 5, Path(b))
        other = workload.generate("wide", 6, Path(c))
        for x, y in zip([*first[:2], *first[2]], [*again[:2], *again[2]]):
            assert x.read_bytes() == y.read_bytes()
        assert first[3] == again[3]
        assert first[2][0].read_bytes() != other[2][0].read_bytes()
        # the logs of one workload are independent draws
        assert len(first[2]) == 8 and first[3][0] != first[3][1]
        windows = workload.read_windows(first[1].read_text())
        assert windows["L"] == (2 * 3600, 11 * 3600)


def test_paired_cases_complete_each_start_within_its_window():
    params = workload.WORKLOADS["paired"]
    windows = workload.read_windows((workload.DATA / "heuristics.csv").read_text())
    events = workload.simulate_log(
        workload.read_net((workload.DATA / "clinic.pnml").read_text()),
        windows, random.Random(3), 20, params["gap"], paired=True,
    )
    assert events[0].lifecycle == "started"
    open_starts = {}
    for ev in events:
        key = (ev.case_id, ev.activity)
        if ev.lifecycle == "started":
            open_starts.setdefault(key, []).append(ev.offset)
        else:
            mn, mx = windows[ev.activity]
            assert mn <= ev.offset - open_starts[key].pop(0) <= mx
    assert not any(open_starts.values())


def test_self_time_subtracts_direct_children_per_module():
    tracer = Tracer()
    tracer.spans = [
        ["bench.event", 0, 100, None, 7],
        ["correlator.candidate_allocations", 10, 40, 0, 7],
        ["correlator.ingest", 40, 90, 0, 7],
        ["store.export_log", 200, 230, None, None],
    ]
    assert tracer.self_ns_by_module() == {"bench": 20, "correlator": 80, "store": 30}
    assert tracer.durations_ns("correlator.ingest") == [50]


def test_spans_record_their_parent_and_trace_id():
    tracer = Tracer()
    with tracer.span("bench.event", 3):
        with tracer.span("correlator.ingest", 3):
            pass
    (outer, inner) = tracer.spans
    assert outer[3] is None and inner[3] == 0
    assert inner[4] == 3
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_scale_divides_each_piece_by_the_kernel_samples_around_it():
    ref = calibration.REFERENCE_NS
    # three pieces of two samples; the host slows to half speed after the
    # first, so the middle piece sits between a fast and a slow sample
    samples = [30, 60, 30, 60, 30, 60]
    marks = [0, 2, 4, 6]
    kernel_ns = [ref, ref, 2 * ref, 2 * ref]
    window = calibration.WINDOW
    try:
        calibration.WINDOW = 1
        assert calibration.scale(samples, marks, kernel_ns) == [30, 60, 20, 40, 15, 30]
    finally:
        calibration.WINDOW = window


def test_kernel_sample_is_positive_and_leaves_the_collector_on():
    assert calibration.sample_ns() > 0
    assert gc.isenabled()
