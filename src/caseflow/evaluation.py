"""Scoring correlated instances against a stream's true case ids.

Predicted case ids are arbitrary, so scoring first aligns them to true ids
by greatest overlap, one-to-one, then counts each selected instance as a hit
or a miss under that alignment.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


def selections(instances, mode: str = "max_trust", threshold: float | None = None):
    """Pick the instances that count as the correlator's answer, per event.

    max_trust keeps the single most trusted instance of each event, smaller
    case id winning ties. threshold keeps every instance at or above the
    given trust, so one event may answer more than once. Noise instances are
    never selected; an event left with nothing is an abstention.
    """
    if mode == "max_trust":
        def pick(group):
            return [max(group, key=lambda i: (i.trust, -i.case_id))] if group else []
    elif mode == "threshold":
        if threshold is None:
            raise ValueError("threshold mode needs a threshold value")

        def pick(group):
            return [i for i in group if i.trust >= threshold]
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    proper: dict[int, list] = {}
    for inst in instances:
        group = proper.setdefault(inst.seq, [])
        if not inst.is_noise():
            group.append(inst)
    return {seq: pick(group) for seq, group in proper.items()}


def align_cases(pairs) -> dict:
    """Greedy one-to-one alignment of predicted to true case ids.

    Pairs with the most co-occurrences are matched first; ties fall to the
    smaller predicted id, then the smaller true id. Ids left over on either
    side stay unmatched.
    """
    counts: dict[tuple, int] = {}
    for pred, true in pairs:
        if pred is None or true is None:
            continue
        counts[(pred, true)] = counts.get((pred, true), 0) + 1

    def order(item):
        (pred, true), n = item
        true_key = (0, true) if isinstance(true, int) else (1, str(true))
        return (-n, pred, true_key)

    mapping: dict = {}
    taken = set()
    for (pred, true), _ in sorted(counts.items(), key=order):
        if pred in mapping or true in taken:
            continue
        mapping[pred] = true
        taken.add(true)
    return mapping


def score(instances, truth_labels, mode: str = "max_trust", threshold: float | None = None) -> ConfusionCounts:
    """Count hits, false assignments, and abstentions over a whole stream.

    truth_labels holds the true case id of event seq i at position i; every
    event must be represented among the instances. An event whose true id is
    None is noise in the ground truth: selecting anything for it is a false
    positive, abstaining is correct.
    """
    labels = list(truth_labels)
    picked = selections(instances, mode=mode, threshold=threshold)
    if picked.keys() != set(range(len(labels))):
        raise ValueError("instances and truth labels cover different events")
    pairs = [(inst.case_id, labels[seq]) for seq, chosen in picked.items() for inst in chosen]
    mapping = align_cases(pairs)
    tp = sum(true is not None and mapping.get(pred) == true for pred, true in pairs)
    fn = sum(not chosen and labels[seq] is not None for seq, chosen in picked.items())
    return ConfusionCounts(tp=tp, fp=len(pairs) - tp, fn=fn)


def _guarded_ratio(numerator: float, denominator: float, what: str) -> float:
    if denominator == 0:
        warnings.warn(f"{what} undefined (zero denominator); reporting 0", RuntimeWarning, stacklevel=3)
        return 0.0
    return numerator / denominator


def precision(counts: ConfusionCounts) -> float:
    return _guarded_ratio(counts.tp, counts.tp + counts.fp, "precision")


def recall(counts: ConfusionCounts) -> float:
    return _guarded_ratio(counts.tp, counts.tp + counts.fn, "recall")


def _ratios(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Precision, recall and F, each computed, and so warned about, once."""
    p = precision(counts)
    r = recall(counts)
    return p, r, _guarded_ratio(2 * p * r, p + r, "f-score")


def f_score(counts: ConfusionCounts) -> float:
    return _ratios(counts)[2]


def latency_report(latencies_seconds) -> dict[str, float]:
    """Mean, nearest-rank p99, and max of per-event latencies, in ms."""
    lat = sorted(latencies_seconds)
    if not lat:
        return {"mean": 0.0, "p99": 0.0, "max": 0.0}
    rank = max(1, math.ceil(0.99 * len(lat)))
    return {
        "mean": 1000.0 * sum(lat) / len(lat),
        "p99": 1000.0 * lat[rank - 1],
        "max": 1000.0 * lat[-1],
    }


def build_report(counts: ConfusionCounts, latencies_seconds=()) -> dict:
    p, r, f = _ratios(counts)
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "precision": p,
        "recall": r,
        "f_score": f,
        "latency_ms": latency_report(latencies_seconds),
    }
