"""Scoring correlated instances against a stream's true case ids.

Predicted case ids are arbitrary, so scoring first aligns them to true ids
by greatest overlap, one-to-one, then counts each selected instance as a hit
or a miss under that alignment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass


@dataclass(frozen=True)
class ConfusionCounts:
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
    by_seq: dict[int, list] = {}
    for inst in instances:
        by_seq.setdefault(inst.seq, []).append(inst)
    picked: dict[int, list] = {}
    if mode == "max_trust":
        for seq, group in by_seq.items():
            proper = [i for i in group if not i.is_noise()]
            picked[seq] = [max(proper, key=lambda i: (i.trust, -i.case_id))] if proper else []
    elif mode == "threshold":
        if threshold is None:
            raise ValueError("threshold mode needs a threshold value")
        for seq, group in by_seq.items():
            picked[seq] = [i for i in group if not i.is_noise() and i.trust >= threshold]
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return picked


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
    seqs = {inst.seq for inst in instances}
    if seqs != set(range(len(labels))):
        raise ValueError("instances and truth labels cover different events")
    picked = selections(instances, mode=mode, threshold=threshold)
    pairs = []
    for seq, chosen in picked.items():
        pairs.extend((inst.case_id, labels[seq]) for inst in chosen)
    mapping = align_cases(pairs)
    tp = fp = fn = 0
    for seq, chosen in picked.items():
        true = labels[seq]
        if not chosen:
            if true is not None:
                fn += 1
            continue
        for inst in chosen:
            if true is not None and mapping.get(inst.case_id) == true:
                tp += 1
            else:
                fp += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def _guarded_ratio(numerator: float, denominator: float, what: str) -> float:
    if denominator == 0:
        warnings.warn(f"{what} undefined (zero denominator); reporting 0", RuntimeWarning, stacklevel=3)
        return 0.0
    return numerator / denominator


def precision(counts: ConfusionCounts) -> float:
    return _guarded_ratio(counts.tp, counts.tp + counts.fp, "precision")


def recall(counts: ConfusionCounts) -> float:
    return _guarded_ratio(counts.tp, counts.tp + counts.fn, "recall")


def f_score(counts: ConfusionCounts) -> float:
    p = precision(counts)
    r = recall(counts)
    return _guarded_ratio(2 * p * r, p + r, "f-score")


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
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "precision": precision(counts),
        "recall": recall(counts),
        "f_score": f_score(counts),
        "latency_ms": latency_report(latencies_seconds),
    }
