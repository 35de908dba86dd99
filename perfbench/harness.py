"""Measurements and the correctness gate, driven from one process and one
thread.

The load model is a closed loop with one client: the next event is handed to
`Correlator.ingest` only after the previous call returned, as `caseflow
correlate` does. The only child processes are the CLI runs. Every call goes
through the submodules' public functions, so the program may change what
sits behind them without the benchmark changing.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from caseflow.correlator import Correlator
from caseflow.dependencies import build_task_dependencies
from caseflow.evaluation import ConfusionCounts, f_score, score
from caseflow.heuristics import load_heuristics
from caseflow.model import parse_pnml, validate
from caseflow.streams import read_events

import calibration
from tracing import NullTracer, Tracer

# one set-up lasts about half a millisecond, so its median needs many
SETUP_REPEATS = 101
SETUP_BATCH = 21  # set-ups before each pass or CLI child of the untraced run
MIN_PASSES = 2
MIN_CLI = 2
REPEATS = 3  # stream reads, exports and CLI start-ups in the traced run
# an untraced run checks traced against untraced export on this prefix only
PREFIX_EVENTS = 1000
CLI_TIMEOUT_S = 150
CHUNK_NS = 50_000_000  # work between two kernel samples in a calibrated pass
CLI_SAMPLE_GAP_S = 0.03  # sleep between kernel samples while a CLI child runs


@dataclass(frozen=True)
class Files:
    model: Path
    heuristics: Path
    streams: tuple[Path, ...]  # each correlated on its own, by one Correlator


class Gate:
    """Named correctness checks plus the count of failed operations.

    An operation is one `ingest` call or one CLI run; it fails when it
    raises, exits non-zero, or exports something else than the library.
    Callers add to `attempted`; each failure keeps its first detail.
    """

    def __init__(self):
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.setdefault(name, detail)

    def fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.setdefault(name, detail)


def set_up(files: Files, gate: Gate, tracer=NullTracer()):
    with tracer.span("model.parse_pnml"):
        net = parse_pnml(files.model.read_text(encoding="utf-8"))
    with tracer.span("model.validate"):
        diagnostics = validate(net)
    with tracer.span("dependencies.build_task_dependencies"):
        td = build_task_dependencies(net)
    with tracer.span("heuristics.load_heuristics"):
        table = load_heuristics(files.heuristics.read_text(encoding="utf-8"))
    gate.check("model_valid", diagnostics.ok(), str(diagnostics.errors))
    return td, table


def ingest_pass(events, td, table, gate: Gate, calibrate: bool = False):
    """Untraced pass over one stream: returns the correlator, each call's ns,
    and the wall ns. With `calibrate`, a kernel sample is taken after each
    CHUNK_NS of work and the calls' ns are scaled to the reference host; the
    wall stays raw and leaves the kernel out."""
    correlator = Correlator(td, table)
    samples = []
    marks, kernel_ns = [], []  # the calibration: see calibration.scale
    clock = time.perf_counter_ns
    gc.collect()
    if calibrate:
        marks.append(0)
        kernel_ns.append(calibration.sample_ns())
    begin = chunk = clock()
    for seq, event in enumerate(events):
        start = clock()
        try:
            correlator.ingest(event)
        except Exception as exc:  # a failed operation; the gate names it
            gate.fail("ingest", f"event {seq}: {exc!r}")
        end = clock()
        samples.append(end - start)
        if calibrate and end - chunk >= CHUNK_NS:
            marks.append(seq + 1)
            kernel_ns.append(calibration.sample_ns())
            chunk = clock()
    wall = clock() - begin - sum(kernel_ns[1:])
    gate.attempted += len(events)
    if calibrate:
        marks.append(len(events))
        kernel_ns.append(calibration.sample_ns())
        samples = calibration.scale(samples, marks, kernel_ns)
    return correlator, samples, wall


def traced_pass(events, td, table, gate: Gate, tracer: Tracer, first_id: int = 0):
    """Calls the pure query `candidate_allocations` twice before each
    `ingest`, so search time can be split from the rest of ingest: the first
    call is the search as `ingest` meets it cold; the second repeats it warm,
    as `ingest` then repeats it, so ingest less the second call is the
    scoring and storing, timed a moment apart on the same core. An event's
    trace id is `first_id` plus its position in the stream."""
    correlator = Correlator(td, table)
    gc.collect()
    begin = time.perf_counter_ns()
    for seq, event in enumerate(events, start=first_id):
        with tracer.span("bench.event", seq):
            try:
                with tracer.span("correlator.candidate_allocations", seq):
                    correlator.candidate_allocations(event)
                with tracer.span("correlator.candidate_allocations.warm", seq):
                    correlator.candidate_allocations(event)
                with tracer.span("correlator.ingest", seq):
                    correlator.ingest(event)
            except Exception as exc:  # a failed operation; the gate names it
                gate.fail("ingest", f"traced event {seq}: {exc!r}")
    wall = time.perf_counter_ns() - begin
    gate.attempted += len(events)
    return correlator, wall


def deciles_us(samples_ns) -> list[float]:
    """Mean per tenth of each stream, in microseconds. `samples_ns` holds one
    list per stream; the tenths are averaged over the streams."""
    return [
        statistics.fmean(
            statistics.fmean(s[len(s) * i // 10:len(s) * (i + 1) // 10]) for s in samples_ns
        ) / 1000
        for i in range(10)
    ]


def nearest_rank(ordered, share: float):
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def check_output(gate: Gate, instances, export: str, n_events: int) -> None:
    missing = set(range(n_events)) - {inst.seq for inst in instances}
    gate.check("seq_coverage", not missing, f"{len(missing)} events have no instance")
    rows = list(csv.DictReader(io.StringIO(export)))
    bad = [f"event {i.seq}" for i in instances
           if not i.is_noise() and (i.trust is None or not 0 <= i.trust <= 100)]
    bad += [f"row {r}" for r in rows if r["trust"] and not 0 <= float(r["trust"]) <= 100]
    gate.check("trust_range", not bad, f"{len(bad)} out of [0, 100], first {bad[:2]}")
    bad = [f"event {i.seq}" for i in instances if i.is_noise() and i.case_id is not None]
    bad += [f"row {r}" for r in rows if not r["trust"] and r["case_id"]]
    gate.check("noise_case_id", not bad, f"{len(bad)} noise rows with a case id, first {bad[:2]}")


def quality(instances, labels):
    """F-score (max-trust selection, counts pooled over the streams) and the
    share of events kept as noise. `instances` and `labels` hold one list
    per stream. The F-score is None when events are missing, which
    seq_coverage reports."""
    noise = sum(1 for insts in instances for inst in insts if inst.is_noise())
    events = sum(len(l) for l in labels)
    if any({inst.seq for inst in insts} != set(range(len(l)))
           for insts, l in zip(instances, labels)):
        return None, noise / events
    counts = [score(insts, l, mode="max_trust") for insts, l in zip(instances, labels)]
    pooled = ConfusionCounts(tp=sum(c.tp for c in counts), fp=sum(c.fp for c in counts),
                             fn=sum(c.fn for c in counts))
    return f_score(pooled), noise / events


def _child_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


# What `python -m caseflow` runs, then a last line on standard error with the
# peak RSS of the child's own image. getrusage(RUSAGE_CHILDREN) cannot give
# it: a child counts the pages of the process that spawned it until it execs.
CLI_PROGRAM = """\
import runpy, sys
try:
    runpy.run_module("caseflow", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    print("peak_rss_kib", *peak, file=sys.stderr)
"""


def _timed_child(cmd, calibrate: bool):
    """Runs one child; returns its exit code (None on timeout), its standard
    error, its wall seconds, and, with `calibrate`, the kernel samples taken
    meanwhile. The child never outlives the call.

    To calibrate, this process and the child share one core, and this one
    takes a kernel sample every CLI_SAMPLE_GAP_S, so the samples see the
    speed of the core the child runs on. Their CPU time is taken off the
    child's wall."""
    cores = os.sched_getaffinity(0)
    if calibrate:
        os.sched_setaffinity(0, {max(cores)})  # the child inherits it
    kernel_ns = []
    proc = None
    try:
        start = time.perf_counter()
        cpu = time.process_time()
        proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            while calibrate and proc.poll() is None:
                if time.perf_counter() - start > CLI_TIMEOUT_S:
                    raise subprocess.TimeoutExpired(cmd, CLI_TIMEOUT_S)
                kernel_ns.append(calibration.sample_ns())
                time.sleep(CLI_SAMPLE_GAP_S)
            stderr = proc.communicate(timeout=CLI_TIMEOUT_S)[1]
        except subprocess.TimeoutExpired:
            return None, "", time.perf_counter() - start, kernel_ns
        wall = time.perf_counter() - start
        if calibrate:
            wall -= time.process_time() - cpu
        return proc.returncode, stderr, wall, kernel_ns
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        os.sched_setaffinity(0, cores)


@dataclass
class CliRun:
    raw_s: float = 0.0  # summed wall seconds of the run's children
    scaled_s: float = 0.0  # the same, scaled to the reference host
    peak_rss_kib: int = 0  # the largest child's peak RSS


def run_cli(gate: Gate, files: Files, output: Path, expected: list[str],
            calibrate: bool = False) -> CliRun:
    """One `caseflow correlate` child per stream. Each export must equal the
    library's byte for byte. Without `calibrate` the scaled time is the raw
    one."""
    run = CliRun()
    for stream, export in zip(files.streams, expected):
        cmd = [sys.executable, "-c", CLI_PROGRAM, "correlate", "--model", str(files.model),
               "--heuristics", str(files.heuristics), "--input", str(stream),
               "--output", str(output)]
        gate.attempted += 1
        code, stderr, wall, kernel_ns = _timed_child(cmd, calibrate)
        run.raw_s += wall
        run.scaled_s += wall * calibration.factor(kernel_ns) if kernel_ns else wall
        if code is None:
            gate.fail("cli_exit", f"no exit within {CLI_TIMEOUT_S} s")
            break
        *lines, last = stderr.rstrip("\n").split("\n")
        peak = last.split()
        if peak[:1] == ["peak_rss_kib"] and len(peak) == 2:
            run.peak_rss_kib = max(run.peak_rss_kib, int(peak[1]))
        else:
            gate.check("cli_peak_rss", False, f"{stream.name}: no peak RSS reported")
        if code != 0:
            message = "\n".join(lines).strip()
            gate.fail("cli_exit", f"exit {code}: {message[-300:]}")
        elif output.read_bytes() != export.encode("utf-8"):
            gate.fail("cli_export", f"CLI --output for {stream.name} differs from the "
                                    "library export_log(0.0)")
    return run


def cli_startup_s(gate: Gate) -> float:
    """Wall seconds of `caseflow --help`: interpreter start and imports."""
    gate.attempted += 1
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "caseflow", "--help"], env=_child_env(),
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        gate.fail("cli_exit", f"--help exit {proc.returncode}")
    return wall


def read_streams(files: Files, labels, gate: Gate):
    streams = [list(read_events(path)) for path in files.streams]
    for path, events, truth in zip(files.streams, streams, labels):
        gate.check("stream_length", len(events) == len(truth),
                   f"{path.name}: {len(events)} events read, {len(truth)} generated")
    return streams


def full_pass(streams, td, table, gate: Gate):
    """One calibrated pass over every stream: the correlators, each
    stream's scaled per-call ns, and the raw wall ns of the whole pass."""
    correlators, samples, wall = [], [], 0
    for events in streams:
        correlator, times, stream_wall = ingest_pass(events, td, table, gate, calibrate=True)
        correlators.append(correlator)
        samples.append(times)
        wall += stream_wall
    return correlators, samples, wall


def timed_set_ups(files: Files, gate: Gate, count: int):
    """`count` set-ups, each between two kernel samples: the last set-up's
    result and each one's seconds scaled to the reference host."""
    times, kernel_ns = [], [calibration.sample_ns()]
    for _ in range(count):
        begin = time.perf_counter()
        td, table = set_up(files, gate)
        times.append(time.perf_counter() - begin)
        kernel_ns.append(calibration.sample_ns())
    return td, table, calibration.scale(times, range(count + 1), kernel_ns)


def measure(files: Files, labels, seconds: float, work: Path):
    """The untraced run: the end-to-end metrics.

    Every timed quantity is scaled to the reference host (see
    calibration.py), sampled across the whole run and reported as a median:
    ingest passes and CLI runs alternate until `seconds` have passed, with a
    batch of set-ups before each. A unit starts only if it is expected to
    end in time, but at least MIN_PASSES passes and MIN_CLI CLI runs are
    made. Each event's latency is its median over the passes.
    """
    gate = Gate()
    streams = read_streams(files, labels, gate)
    td, table = set_up(files, gate)
    # warm-up, which is also the traced-against-untraced check on a prefix
    prefix = streams[0][:PREFIX_EVENTS]
    plain, _, _ = ingest_pass(prefix, td, table, gate)
    traced, _ = traced_pass(prefix, td, table, gate, Tracer())
    gate.check("traced_export", traced.store.export_log(0.0) == plain.store.export_log(0.0),
               f"traced export differs on the first {len(prefix)} events")
    del plain, traced

    setup, passes, exports, cli_walls = [], [], [], []
    pass_walls, cli_raw = [], []  # unscaled, for the summary
    peak_kib = 0
    last = {"pass": 0.0, "cli": 0.0}  # the latest duration of each unit
    correlators = None
    deadline = time.perf_counter() + seconds
    while True:
        owed = [kind for kind, done, least in (("pass", passes, MIN_PASSES),
                                               ("cli", cli_walls, MIN_CLI)) if len(done) < least]
        order = ["pass", "cli"] if len(passes) <= len(cli_walls) else ["cli", "pass"]
        fits = [k for k in order if time.perf_counter() + last[k] <= deadline]
        kind = ([k for k in order if k in owed] or fits or [None])[0]
        if kind is None:
            break
        start = time.perf_counter()
        td, table, times = timed_set_ups(files, gate, SETUP_BATCH)
        setup += times
        if kind == "pass":
            correlators = None  # free the previous stores before the next pass
            correlators, samples, wall = full_pass(streams, td, table, gate)
            passes.append(samples)
            pass_walls.append(wall)
            exports.append([c.store.export_log(0.0) for c in correlators])
        else:
            run = run_cli(gate, files, work / "cli_out.csv", exports[-1], calibrate=True)
            cli_raw.append(run.raw_s)
            cli_walls.append(run.scaled_s)
            peak_kib = max(peak_kib, run.peak_rss_kib)
        last[kind] = time.perf_counter() - start
    gate.check("repeat_export", all(e == exports[0] for e in exports),
               "passes over the same streams exported different logs")
    instances = [c.store.instances() for c in correlators]
    for insts, export, events in zip(instances, exports[0], streams):
        check_output(gate, insts, export, len(events))
    f, noise_share = quality(instances, labels)

    # per stream, each event's median over the passes
    latencies = [[statistics.median(times) for times in zip(*runs)]
                 for runs in zip(*passes)]
    ordered = sorted(t for stream in latencies for t in stream)
    metrics = {
        "events_per_s": (len(ordered) / (sum(ordered) / 1e9), "events/s"),
        "ingest_p50_us": (statistics.median(ordered) / 1000, "us"),
        "ingest_p99_us": (nearest_rank(ordered, 0.99) / 1000, "us"),
        "cli_wall_s": (statistics.median(cli_walls), "s"),
        "cli_peak_rss_mb": (peak_kib / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "f_score": (f, "ratio"),
        "noise_share": (noise_share, "ratio"),
    }
    notes = {
        "streams": len(streams),
        "events": len(ordered),
        "passes": len(passes),
        "cli_runs": len(cli_walls),
        "latency_samples": len(ordered),
        "beyond_p99": len(ordered) - max(1, math.ceil(0.99 * len(ordered))),
        "setup_samples": len(setup),
        "failed_share": gate.failed / gate.attempted,
        "raw_events_per_s": round(len(ordered) / (statistics.median(pass_walls) / 1e9)),
        "raw_cli_wall_s": round(statistics.median(cli_raw), 3),
        "deciles_us": deciles_us(latencies),
    }
    return gate, metrics, notes


def measure_traced(files: Files, labels, work: Path, trace_path: Path):
    """The traced run: the per-layer metrics and per-module self times."""
    gate = Gate()
    tracer = Tracer()
    for _ in range(SETUP_REPEATS):
        td, table = set_up(files, gate, tracer)
    for _ in range(REPEATS):
        with tracer.span("streams.read_events"):
            streams = read_streams(files, labels, gate)

    plain_exports, exports, instances, samples = [], [], [], []
    plain_wall = traced_wall = cases = 0
    first_id = 0
    for events in streams:
        plain, times, wall = ingest_pass(events, td, table, gate)
        traced, twall = traced_pass(events, td, table, gate, tracer, first_id)
        first_id += len(events)
        plain_wall += wall
        traced_wall += twall
        samples.append(times)
        plain_exports.append(plain.store.export_log(0.0))
        del plain
        for _ in range(REPEATS):
            with tracer.span("store.export_log"):
                export = traced.store.export_log(0.0)
        exports.append(export)
        instances.append(traced.store.instances())
        cases += len(traced.store.case_ids())
    gate.check("traced_export", exports == plain_exports, "traced export differs")
    for insts, export, events in zip(instances, exports, streams):
        check_output(gate, insts, export, len(events))
    with tracer.span("cli.correlate"):
        run_cli(gate, files, work / "cli_out.csv", plain_exports)
    startup = []
    for _ in range(REPEATS):
        with tracer.span("cli.help"):
            startup.append(cli_startup_s(gate))

    def median_ms(name):
        return statistics.median(tracer.durations_ns(name)) / 1e6

    n = first_id
    search_us = sum(tracer.durations_ns("correlator.candidate_allocations")) / n / 1000
    score_store_us = (sum(tracer.durations_ns("correlator.ingest"))
                      - sum(tracer.durations_ns("correlator.candidate_allocations.warm"))) / n / 1000
    allocations, per_event = [], []
    for insts, events in zip(instances, streams):
        allocs = [0] * len(events)
        count = [0] * len(events)
        for inst in insts:
            allocs[inst.seq] += len(inst.allocations)
            count[inst.seq] += 1
        allocations += allocs
        per_event += count
    everything = [inst for insts in instances for inst in insts]
    noise = Counter(inst.noise_reason for inst in everything if inst.is_noise())

    metrics = {
        "model.parse_ms": (median_ms("model.parse_pnml"), "ms"),
        "model.validate_ms": (median_ms("model.validate"), "ms"),
        "dependencies.build_ms": (median_ms("dependencies.build_task_dependencies"), "ms"),
        "heuristics.load_ms": (median_ms("heuristics.load_heuristics"), "ms"),
        "streams.read_events_ms": (median_ms("streams.read_events"), "ms"),
        "correlator.search_us": (search_us, "us"),
        "correlator.score_store_us": (score_store_us, "us"),
    }
    deciles = deciles_us(samples)
    # mean over the last tenth against the second; the first starts empty
    metrics["ingest_growth"] = (deciles[9] / deciles[1], "ratio")
    for i, d in enumerate(deciles, start=1):
        metrics[f"correlator.ingest_us.d{i}"] = (d, "us")
    metrics.update({
        "correlator.allocations_per_event.mean": (statistics.fmean(allocations), "count"),
        "correlator.allocations_per_event.max": (max(allocations), "count"),
        "correlator.instances_per_event": (statistics.fmean(per_event), "count"),
        "correlator.trust_cap_hits": (
            sum(1 for i in everything if i.raw_trust is not None and i.raw_trust > 100), "count"),
        "correlator.noise.unknown-activity": (noise["unknown-activity"], "count"),
        "correlator.noise.no-allocation": (noise["no-allocation"], "count"),
        "store.instances": (len(everything), "count"),
        "store.cases": (cases, "count"),
        "store.export_ms": (median_ms("store.export_log"), "ms"),
        "cli.startup_s": (statistics.median(startup), "s"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
    })
    self_ns = tracer.self_ns_by_module()
    for module in ("bench", "model", "dependencies", "heuristics", "streams",
                   "correlator", "store", "cli"):
        metrics[f"trace.self_ms.{module}"] = (self_ns.get(module, 0) / 1e6, "ms")
    tracer.write(trace_path)
    notes = {"streams": len(streams), "events": n, "spans": len(tracer.spans),
             "failed_share": gate.failed / gate.attempted}
    return gate, metrics, notes
