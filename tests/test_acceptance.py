"""Acceptance gate for the whole pipeline.

Each test states one shipped guarantee and checks it end to end: the curated
clinic model and its running-example stream against hand-computed expected
values, the allocation engine against an independent brute-force oracle on
randomized inputs, a full simulate/strip/correlate/score round trip, ingest
latency at scale, and noise isolation.
"""

import json
import random
import time
from datetime import datetime
from fractions import Fraction

import pytest

import cli_runner
import oracle
import simulate
from caseflow import (
    Correlator,
    HeuristicTable,
    UncorrelatedEvent,
    build_task_dependencies,
    f_score,
    latency_report,
    replay,
    score,
    strip_case_ids,
)

# the full running-example stream: (second past 11:55, activity)
EVENTS = [
    (1, "A"), (2, "A"), (3, "B"), (4, "C"), (5, "A"), (6, "B"), (7, "D"),
    (8, "J"), (9, "B"), (10, "D"), (11, "I"), (13, "E"), (14, "E"), (15, "F"),
    (16, "L"), (17, "G"), (18, "H"), (19, "E"), (20, "G"), (21, "L"),
    (22, "L"), (23, "N"), (24, "B"), (25, "M"), (26, "C"), (27, "I"),
    (28, "M"), (29, "J"), (31, "L"), (32, "M"),
]

# hand-computed per-case trust of every event, as exact fractions of 1,
# derived from the allocation counts and the avg/range probability rule
EXPECTED_TRUSTS = {
    (1, "A"): {1: Fraction(1)},
    (2, "A"): {2: Fraction(1)},
    (3, "B"): {1: Fraction(5, 12), 2: Fraction(5, 12)},
    (4, "C"): {1: Fraction(1, 4), 2: Fraction(1, 4)},
    (5, "A"): {3: Fraction(1)},
    (6, "B"): {2: Fraction(5, 12), 3: Fraction(5, 12)},
    (7, "D"): {2: Fraction(3, 4), 3: Fraction(3, 4)},
    (8, "J"): {1: Fraction(3, 4), 2: Fraction(3, 4)},
    (9, "B"): {3: Fraction(1)},
    (10, "D"): {3: Fraction(1)},
    (11, "I"): {1: Fraction(11, 24), 2: Fraction(11, 24)},
    (13, "E"): {2: Fraction(17, 54), 3: Fraction(34, 54)},
    (14, "E"): {2: Fraction(17, 54), 3: Fraction(41, 54)},
    (15, "F"): {2: Fraction(3, 4), 3: Fraction(3, 4)},
    (16, "L"): {1: Fraction(17, 36), 2: Fraction(17, 36)},
    (17, "G"): {2: Fraction(3, 8), 3: Fraction(3, 8)},
    (18, "H"): {2: Fraction(3, 4), 3: Fraction(3, 4)},
    (19, "E"): {2: Fraction(11, 24), 3: Fraction(11, 24)},
    (20, "G"): {2: Fraction(3, 8), 3: Fraction(3, 8)},
    (21, "L"): {1: Fraction(35, 144), 2: Fraction(70, 144), 3: Fraction(35, 144)},
    (22, "L"): {1: Fraction(53, 324), 2: Fraction(159, 324), 3: Fraction(106, 324)},
    (23, "N"): {1: Fraction(4, 9), 2: Fraction(4, 9), 3: Fraction(4, 9)},
    (24, "B"): {1: Fraction(8, 27), 2: Fraction(8, 27), 3: Fraction(8, 27)},
    (25, "M"): {1: Fraction(189, 512), 2: Fraction(189, 512), 3: Fraction(126, 512)},
    (26, "C"): {1: Fraction(4, 9), 2: Fraction(4, 9), 3: Fraction(4, 9)},
    (27, "I"): {1: Fraction(17, 54), 2: Fraction(17, 54), 3: Fraction(17, 54)},
    (28, "M"): {1: Fraction(94, 288), 2: Fraction(94, 288), 3: Fraction(94, 288)},
    (29, "J"): {1: Fraction(2, 9), 2: Fraction(2, 9), 3: Fraction(2, 9)},
    (31, "L"): {1: Fraction(124, 441), 2: Fraction(186, 441), 3: Fraction(124, 441)},
    (32, "M"): {1: Fraction(23, 72), 2: Fraction(23, 72), 3: Fraction(23, 72)},
}

CASE2_SEQUENCE = [
    (2, "A"), (3, "B"), (4, "C"), (6, "B"), (7, "D"), (8, "J"), (11, "I"),
    (13, "E"), (14, "E"), (15, "F"), (16, "L"), (17, "G"), (18, "H"),
    (19, "E"), (20, "G"), (21, "L"), (22, "L"), (23, "N"), (24, "B"),
    (25, "M"), (26, "C"), (27, "I"), (28, "M"), (29, "J"), (31, "L"),
    (32, "M"),
]

SIMULATION_WEIGHTS = {"M": 3, "G": 3}  # favor loop exits, as real behavior does


@pytest.fixture(scope="module")
def running_example(clinic_td, clinic_table, clinic_events):
    correlator = Correlator(clinic_td, clinic_table)
    start = time.perf_counter()
    replay(clinic_events, correlator.ingest)
    elapsed = time.perf_counter() - start
    return correlator.store, elapsed


def test_model_analysis_reproduces_curated_dependency_table(data_dir):
    start = time.perf_counter()
    result = cli_runner.invoke("analyze", "--model", str(data_dir / "clinic.pnml"))
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {
        "deps": {
            "A": [],
            "B": [["A"], ["N"]],
            "C": [["B"]],
            "D": [["B"]],
            "E": [["D"], ["H"]],
            "F": [["E"]],
            "G": [["E"]],
            "H": [["F"]],
            "I": [["C"]],
            "J": [["C"]],
            "L": [["G"], ["I", "J"]],
            "M": [["L"]],
            "N": [["L"]],
        },
        "loop_entries": ["D", "G", "H", "I", "J", "N"],
    }
    assert elapsed < 1.0


def test_average_durations_derive_from_min_max_bounds(clinic_table):
    expected = {
        "A": 1, "B": 3, "C": 2, "D": 1, "E": 4, "F": 2, "G": 2,
        "H": 3, "I": 4, "J": 4, "L": 7, "M": 5, "N": 1,
    }
    assert {a: clinic_table.avg(a) for a in sorted(clinic_table.activities())} == expected


def test_running_example_correlation_matches_hand_oracle(running_example):
    store, elapsed = running_example
    by_event = {}
    for inst in store.instances():
        by_event.setdefault(inst.seq, []).append(inst)

    # three cases, opened in arrival order by the three A events
    assert store.case_ids() == [1, 2, 3]
    openings = [(seq, key) for seq, key in enumerate(EVENTS) if key[1] == "A"]
    assert [(key[0], by_event[seq][0].case_id) for seq, key in openings] == [
        (1, 1), (2, 2), (5, 3),
    ]

    # the only fully trusted rows from 11:55:05 on are the case-3 prefix
    certain = sorted(
        (inst.timestamp.second, inst.activity, inst.case_id)
        for inst in store.instances()
        if inst.timestamp.second >= 5 and inst.trust == 100.0
    )
    assert certain == [(5, "A", 3), (9, "B", 3), (10, "D", 3)]

    # case membership of the shared rows, including the double allocation
    e13 = {inst.case_id: inst for inst in by_event[11]}
    assert set(e13) == {2, 3}
    assert len(e13[3].allocations) == 2
    l16 = {inst.case_id for inst in by_event[14]}
    assert l16 == {1, 2}

    # every trust value within 0.01 percentage points of exact arithmetic
    for seq, key in enumerate(EVENTS):
        got = {inst.case_id: inst.trust for inst in by_event[seq]}
        expected = {c: float(100 * f) for c, f in EXPECTED_TRUSTS[key].items()}
        assert got.keys() == expected.keys(), key
        for case_id, trust in expected.items():
            assert got[case_id] == pytest.approx(trust, abs=0.01), (key, case_id)

    assert store.noise_count() == 0
    assert elapsed < 1.0


def test_case_two_view_holds_the_full_shared_path(running_example):
    store, _ = running_example
    view = store.case_view(2)
    assert len(view) == 26
    assert [(inst.timestamp.second, inst.activity) for inst in view] == CASE2_SEQUENCE
    for inst in view:
        expected = EXPECTED_TRUSTS[(inst.timestamp.second, inst.activity)][2]
        assert inst.trust == pytest.approx(float(100 * expected), abs=0.01)
    # the two other interleaved cases, for completeness of the partition
    assert len(store.case_view(1)) == 17
    assert len(store.case_view(3)) == 23


def test_allocation_engine_matches_brute_force_oracle():
    rng = random.Random(20240616)
    scenarios = 1000
    for scenario in range(scenarios):
        net = simulate.random_net(rng)
        td = build_task_dependencies(net)
        activities = sorted(net.observable_labels())
        windows = {}
        for activity in activities:
            mn = rng.randint(1, 3)
            windows[activity] = (mn, mn + rng.randint(0, 4))
        table = HeuristicTable(windows)
        stream = simulate.random_stream(rng, activities, paired=scenario % 3 == 0)

        correlator = Correlator(td, table)
        for event in stream:
            expected_allocs = oracle.brute_force_allocations(correlator, event)
            assert correlator.candidate_allocations(event) == expected_allocs

            mode = correlator.mode or (
                "paired" if event.lifecycle == "started" else "completed"
            )
            opens = (
                event.activity in td.activities()
                and not td.alternatives(event.activity)
                and (mode == "completed" or event.lifecycle == "started")
            )
            instances = correlator.ingest(event)
            if opens:
                assert len(instances) == 1 and instances[0].trust == 100.0
            elif not expected_allocs:
                assert len(instances) == 1 and instances[0].is_noise()
            else:
                got = {inst.case_id: inst.trust for inst in instances}
                expected = oracle.expected_trusts(expected_allocs, event.activity, table)
                assert got.keys() == expected.keys()
                for case_id, trust in expected.items():
                    assert abs(got[case_id] - float(trust)) < 1e-9
                spread = set()
                for inst in instances:
                    spread.update(inst.allocations)
                assert spread == expected_allocs

        # relabeling a stripped stream restores it exactly
        labeled = tuple(
            event._replace(case_id=rng.choice([1, 2, 3, "x", None])) for event in stream
        )
        stripped, labels = strip_case_ids(labeled)
        assert tuple(e._replace(case_id=c) for e, c in zip(stripped, labels)) == labeled

        # repeated runs are byte-identical
        if scenario % 25 == 0:
            again = Correlator(td, table)
            for event in stream:
                again.ingest(event)
            assert again.store.export_log(0.0) == correlator.store.export_log(0.0)
            assert build_task_dependencies(net).to_json_dict() == td.to_json_dict()


def test_synthetic_log_round_trip_recovers_case_structure(clinic_net, clinic_td, clinic_table):
    start = time.perf_counter()
    rng = random.Random(42)
    log = simulate.simulate_log(
        clinic_net, clinic_table, rng, 100, gap_range=(15, 35), weights=SIMULATION_WEIGHTS
    )
    assert len(log) >= 850
    stream, _ = strip_case_ids(log)
    correlator = Correlator(clinic_td, clinic_table)
    for event in stream:
        correlator.ingest(event)
    counts = score(correlator.store.instances(), [event.case_id for event in log])
    elapsed = time.perf_counter() - start
    assert f_score(counts) >= 0.80
    assert elapsed < 30.0


def test_ingest_latency_stays_low_at_ten_thousand_instances(clinic_net, clinic_td, clinic_table):
    rng = random.Random(99)
    log = simulate.simulate_log(
        clinic_net, clinic_table, rng, 1200, gap_range=(15, 35), weights=SIMULATION_WEIGHTS
    )
    stream, _ = strip_case_ids(log)
    correlator = Correlator(clinic_td, clinic_table)
    tail = []
    for event in stream:
        loaded = len(correlator.store) >= 10_000
        begin = time.perf_counter()
        correlator.ingest(event)
        if loaded:
            tail.append(time.perf_counter() - begin)
    assert len(correlator.store) >= 10_000
    assert len(tail) >= 1000
    assert latency_report(tail)["p99"] < 20.0


def test_unexplainable_events_become_noise_without_side_effects(
    clinic_td, clinic_table, clinic_events
):
    def essence(inst):
        return (
            inst.timestamp, inst.activity, inst.case_id, inst.trust,
            inst.lifecycle, inst.resource, inst.allocations, inst.raw_trust,
        )

    base = Correlator(clinic_td, clinic_table)
    for event in clinic_events:
        base.ingest(event)
    assert base.store.noise_count() == 0

    # five events whose dependencies never occurred by their instant
    injected_events = [
        UncorrelatedEvent(timestamp=datetime(2019, 6, 16, 11, 55, second), activity=activity)
        for second, activity in [(5, "F"), (6, "H"), (8, "M"), (9, "G"), (10, "N")]
    ]
    merged = sorted(clinic_events + tuple(injected_events), key=lambda e: e.timestamp)

    injected = Correlator(clinic_td, clinic_table)
    for event in merged:
        injected.ingest(event)

    assert injected.store.noise_count() == 5
    for inst in injected.store.noise():
        assert inst.case_id is None
        assert inst.trust is None
        assert inst.noise_reason == "no-allocation"
    kept = [essence(inst) for inst in injected.store.instances() if not inst.is_noise()]
    assert kept == [essence(inst) for inst in base.store.instances()]


def test_real_life_log_benchmarks_require_external_data():
    pytest.skip("needs external real-life logs that are not bundled; "
                "reference metrics are recorded in the project notes")
