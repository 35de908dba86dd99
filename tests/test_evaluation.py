"""Selection policies, case alignment, and confusion scoring."""

from datetime import datetime

import pytest

from caseflow import f_score, latency_report, score
from caseflow.evaluation import (
    ConfusionCounts,
    align_cases,
    build_report,
    precision,
    recall,
    selections,
)
from caseflow.store import CorrelatedEventInstance


def inst(seq, case_id, trust, noise_reason=None):
    return CorrelatedEventInstance(
        timestamp=datetime(2021, 3, 1, 9, 0, seq),
        activity="X",
        case_id=case_id,
        trust=trust,
        noise_reason=noise_reason,
        seq=seq,
    )


def noise(seq):
    return inst(seq, None, None, noise_reason="no-allocation")


def test_max_trust_keeps_single_best_instance():
    picked = selections([inst(0, 1, 40.0), inst(0, 2, 75.0), inst(1, 1, 100.0)])
    assert [i.case_id for i in picked[0]] == [2]
    assert [i.case_id for i in picked[1]] == [1]


def test_max_trust_breaks_ties_toward_smaller_case():
    picked = selections([inst(0, 2, 50.0), inst(0, 1, 50.0)])
    assert [i.case_id for i in picked[0]] == [1]


def test_noise_instances_are_never_selected():
    picked = selections([noise(0)])
    assert picked[0] == []


def test_threshold_mode_keeps_every_qualifying_instance():
    instances = [inst(0, 1, 40.0), inst(0, 2, 75.0), inst(1, 1, 10.0)]
    picked = selections(instances, mode="threshold", threshold=40.0)
    assert [i.case_id for i in picked[0]] == [1, 2]
    assert picked[1] == []


def test_threshold_mode_requires_a_threshold():
    with pytest.raises(ValueError):
        selections([inst(0, 1, 50.0)], mode="threshold")


def test_unknown_selection_mode():
    with pytest.raises(ValueError):
        selections([], mode="best")


def test_align_cases_prefers_larger_overlap():
    pairs = [(1, "a"), (1, "a"), (1, "b"), (2, "b"), (2, "b"), (2, "b")]
    assert align_cases(pairs) == {2: "b", 1: "a"}


def test_align_cases_is_one_to_one():
    # both predictions overlap "a" most, only one of them may take it
    pairs = [(1, "a"), (1, "a"), (2, "a"), (2, "a"), (2, "b")]
    mapping = align_cases(pairs)
    assert mapping[1] == "a"  # tie on count falls to the smaller prediction
    assert mapping[2] == "b"


def test_align_cases_ignores_unlabeled_pairs():
    assert align_cases([(None, "a"), (1, None), (1, "a")]) == {1: "a"}


def test_score_counts_hits_misses_and_abstentions():
    instances = [
        inst(0, 1, 100.0),  # true a, aligned 1 -> a: tp
        inst(1, 1, 80.0),   # true b: fp
        noise(2),           # true b, abstained: fn
        inst(3, 2, 60.0),   # true b, aligned 2 -> b: tp
        noise(4),           # true None, abstained: ignored
        inst(5, 2, 50.0),   # true None: fp
    ]
    truth = ["a", "b", "b", "b", None, None]
    counts = score(instances, truth)
    assert counts == ConfusionCounts(tp=2, fp=2, fn=1)


def test_score_requires_matching_populations():
    with pytest.raises(ValueError, match="different events"):
        score([inst(0, 1, 100.0)], ["a", "b"])


def test_score_threshold_mode_counts_each_surviving_instance():
    instances = [inst(0, 1, 90.0), inst(0, 2, 90.0), inst(1, 1, 90.0)]
    truth = ["a", "a"]
    counts = score(instances, truth, mode="threshold", threshold=50.0)
    # both selections of event 0 are counted: the aligned one hits, the other misses
    assert counts.tp == 2
    assert counts.fp == 1
    assert counts.fn == 0


def test_ratios_and_guarded_zero_denominators():
    counts = ConfusionCounts(tp=6, fp=2, fn=2)
    assert precision(counts) == pytest.approx(0.75)
    assert recall(counts) == pytest.approx(0.75)
    assert f_score(counts) == pytest.approx(0.75)
    with pytest.warns(RuntimeWarning, match="precision undefined"):
        assert precision(ConfusionCounts(0, 0, 5)) == 0.0
    # the zero-count case trips the precision and recall guards on the way
    with pytest.warns(RuntimeWarning) as caught:
        assert f_score(ConfusionCounts(0, 0, 0)) == 0.0
    assert any("f-score undefined" in str(w.message) for w in caught)


def test_latency_report_nearest_rank():
    # 100 distinct values: the 99th percentile is the 99th smallest
    lat = [i / 1000 for i in range(1, 101)]
    report = latency_report(lat)
    assert report["p99"] == pytest.approx(99.0)
    assert report["max"] == pytest.approx(100.0)
    assert report["mean"] == pytest.approx(50.5)


def test_latency_report_small_and_empty_inputs():
    assert latency_report([]) == {"mean": 0.0, "p99": 0.0, "max": 0.0}
    single = latency_report([0.005])
    assert single["p99"] == pytest.approx(5.0)


def test_build_report_shape():
    report = build_report(ConfusionCounts(tp=1, fp=0, fn=0), [0.001])
    assert set(report) == {"tp", "fp", "fn", "precision", "recall", "f_score", "latency_ms"}
    assert report["precision"] == 1.0
    assert report["latency_ms"]["max"] == pytest.approx(1.0)
