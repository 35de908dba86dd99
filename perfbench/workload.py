"""Seeded workload generator for the benchmark.

It plays the token game on the clinic net in `data/` and draws every
observable duration inside the activity's window, so the true case id of each
event is known. The generator reads the net and the windows itself and uses
nothing from the package under test or from its test suite, so neither can
shift the workloads.

Timestamps are whole seconds after BASE_TS, kept as integers until the
stream is written.
"""

from __future__ import annotations

import csv
import io
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

DATA = Path(__file__).parent / "data"
BASE_TS = datetime(2021, 3, 1, 9, 0, 0)
# loop exits three times as likely as repeats, as in real behaviour
LOOP_EXIT_WEIGHTS = {"M": 3, "G": 3}
MAX_FIRINGS = 200

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# A workload is `logs` independent logs drawn one after the other from one
# random stream, each correlated on its own.
WORKLOADS = {
    "steady": {"logs": 1, "cases": 1200, "gap": (15, 35), "window_scale": 1, "paired": False},
    # steady's log stretched 3600-fold in time (windows of 1 h to 11 h), cut
    # into eight logs of 150 cases so that each store stays small
    "wide": {"logs": 8, "cases": 150, "gap": (15 * 3600, 35 * 3600), "window_scale": 3600,
             "paired": False},
    "paired": {"logs": 1, "cases": 800, "gap": (30, 70), "window_scale": 1, "paired": True},
}


@dataclass(frozen=True)
class Event:
    offset: int
    activity: str
    case_id: int
    lifecycle: str | None = None

    @property
    def timestamp(self) -> datetime:
        return BASE_TS + timedelta(seconds=self.offset)


@dataclass(frozen=True)
class Net:
    """Places, transitions as (tid, label, silent), and each transition's
    input and output places, in document order."""

    places: tuple[str, ...]
    transitions: tuple[tuple[str, str, bool], ...]
    preset: dict[str, tuple[str, ...]]
    postset: dict[str, tuple[str, ...]]
    source: str


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def read_net(text: str) -> Net:
    """Read the PNML subset the clinic net uses: a transition is silent when
    a toolspecific element marks it invisible."""
    root = ET.fromstring(text)
    places, transitions, arcs = [], [], []
    for el in root.iter():
        tag = _local(el.tag)
        if tag == "place":
            places.append(el.get("id"))
        elif tag == "transition":
            label = next(t.text.strip() for t in el.iter() if _local(t.tag) == "text")
            silent = any(
                _local(t.tag) == "toolspecific" and t.get("activity") == "$invisible$"
                for t in el.iter()
            )
            transitions.append((el.get("id"), label, silent))
        elif tag == "arc":
            arcs.append((el.get("source"), el.get("target")))
    preset = {tid: tuple(s for s, d in arcs if d == tid) for tid, _, _ in transitions}
    postset = {tid: tuple(d for s, d in arcs if s == tid) for tid, _, _ in transitions}
    [source] = [p for p in places if not any(d == p for _, d in arcs)]
    return Net(tuple(places), tuple(transitions), preset, postset, source)


def read_windows(text: str) -> dict[str, tuple[int, int]]:
    return {
        row["activity"]: (int(row["min"]), int(row["max"]))
        for row in csv.DictReader(io.StringIO(text))
    }


def simulate_case(net, windows, rng, case_id, start, paired):
    """One run of the token game; returns this case's observable events.

    A completions-only case emits one event per observable firing, at
    ready + U[min, max]. A paired case emits a started event there and its
    completion at start + U[min, max]; the completion releases the tokens.
    """
    marking = {p: [] for p in net.places}
    marking[net.source].append(start)
    events = []
    for _ in range(MAX_FIRINGS):
        enabled = [t for t in net.transitions if all(marking[p] for p in net.preset[t[0]])]
        if not enabled:
            break
        [(tid, label, silent)] = rng.choices(
            enabled, weights=[LOOP_EXIT_WEIGHTS.get(t[1], 1) for t in enabled]
        )
        consumed = []
        for p in net.preset[tid]:
            marking[p].sort()
            consumed.append(marking[p].pop(0))
        done = max(consumed)
        if not silent:
            mn, mx = windows[label]
            done += rng.randint(mn, mx)
            if paired:
                events.append(Event(done, label, case_id, "started"))
                done += rng.randint(mn, mx)
                events.append(Event(done, label, case_id, "completed"))
            else:
                events.append(Event(done, label, case_id))
        for p in net.postset[tid]:
            marking[p].append(done)
    return events


def simulate_log(net, windows, rng, cases, gap, paired=False):
    """Interleaved labeled log of `cases` cases started `gap` seconds apart,
    drawn uniformly from `rng`; sorted by time, keeping generation order
    among ties."""
    events = []
    start = 0
    for case_id in range(1, cases + 1):
        events.extend(simulate_case(net, windows, rng, case_id, start, paired))
        start += rng.randint(*gap)
    events.sort(key=lambda e: e.offset)
    return events


def stream_csv(events, paired: bool) -> str:
    """The unlabeled stream the program reads: no case id column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["timestamp", "activity", "lifecycle"] if paired else ["timestamp", "activity"])
    for ev in events:
        row = [ev.timestamp.strftime("%Y-%m-%d %H:%M:%S"), ev.activity]
        writer.writerow(row + [ev.lifecycle] if paired else row)
    return buffer.getvalue()


def windows_csv(windows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["activity", "min", "max"])
    for activity in sorted(windows):
        writer.writerow([activity, *windows[activity]])
    return buffer.getvalue()


def generate(name: str, seed: int, directory: Path):
    """Write `name`'s model, windows and streams for `seed` into directory.

    Returns the model and windows paths, the stream paths, and for each
    stream the true case id of each event, in stream order.
    """
    params = WORKLOADS[name]
    model_text = (DATA / "clinic.pnml").read_text(encoding="utf-8")
    scale = params["window_scale"]
    windows = {
        a: (mn * scale, mx * scale)
        for a, (mn, mx) in read_windows((DATA / "heuristics.csv").read_text(encoding="utf-8")).items()
    }
    net = read_net(model_text)
    rng = random.Random(seed)
    model = directory / "model.pnml"
    heuristics = directory / "heuristics.csv"
    model.write_text(model_text, encoding="utf-8")
    heuristics.write_text(windows_csv(windows), encoding="utf-8")
    streams, labels = [], []
    for k in range(params["logs"]):
        events = simulate_log(net, windows, rng, params["cases"], params["gap"], params["paired"])
        stream = directory / f"stream{k}.csv"
        stream.write_text(stream_csv(events, params["paired"]), encoding="utf-8")
        streams.append(stream)
        labels.append([ev.case_id for ev in events])
    return model, heuristics, streams, labels
