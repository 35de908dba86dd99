"""caseflow benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload steady --seed 99 --seconds 36 --trace 0

Run it from the root of a checkout; it imports the package from `src/` and
starts the CLI from there. It generates the workload from the seed, runs the
untraced measurement (`--trace 0`, the end-to-end metrics) or the traced
one (`--trace 1`, the per-layer metrics), checks the outputs, prints a
readable summary and, as its last line, the result object. It exits 1 when
a correctness check fails, and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# scratch files of a run and the last trace of each workload
WORK = ROOT / ".perfbench_work"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["steady", "wide", "paired"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="untraced ingest passes and CLI runs alternate for this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # so that a terminated run still ends its CLI child and scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "caseflow" / "__init__.py").is_file():
        print(f"perfbench: no caseflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workload

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        model, heuristics, streams, labels = workload.generate(args.workload, args.seed, work)
        files = harness.Files(model, heuristics, tuple(streams))
        if args.trace:
            gate, metrics, notes = harness.measure_traced(
                files, labels, work, WORK / f"trace_{args.workload}.jsonl")
        else:
            gate, metrics, notes = harness.measure(files, labels, args.seconds, work)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in notes.items() if k != "deciles_us"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {'none' if value is None else format(value, '14.6g'):>14} {unit}")
    if "deciles_us" in notes:
        deciles = notes["deciles_us"]
        print(f"  {'ingest_growth':40} {deciles[9] / deciles[1]:14.6g} ratio")
        print(f"  {'failed_share':40} {notes['failed_share']:14.6g} ratio")
        print("  ingest_us by tenth of the stream: " + " ".join(f"{d:.1f}" for d in deciles))
    for name, detail in gate.failures.items():
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
