"""powmap benchmark: receiver and sender streams, key churn and CLI launches.

Run one workload the way BENCHMARK.json describes it:

    python3 bench/run.py --workload desk-decode --seed 1 --seconds 25 --trace 0

or every workload in turn by leaving out ``--workload``.  The report names
each metric with its unit; the last line of a single-workload run is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are per-layer call counts, self times and errors of powmap's public
functions, plus the tracing overhead.  Each run also writes its stamped
report (and, when traced, its spans) under ``.bench_out/``.  The exit code
is 1 when any output is wrong or any operation fails, and 2 when this is
not a powmap checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload; all of them when left out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "powmap" / "__init__.py").is_file():
        print(f"error: no powmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]

    import harness
    import workloads

    if args.workload is None:
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    inputs = workloads.make_inputs(args.workload, args.seed)
    run = harness.run_traced if args.trace else harness.run_plain
    result = run(inputs, args.seconds)
    stamp = harness.stamp()
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value, unit, note in result.report:
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for problem in result.problems:
        print(f"WRONG {problem}")
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base.with_suffix(".json").write_text(json.dumps({
        **stamp, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "report": [{"name": n, "value": v, "unit": u, "note": note} for n, v, u, note in result.report],
        "problems": result.problems, "result": line,
    }, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(base.with_suffix(".spans.jsonl"))
    print(json.dumps(line, separators=(",", ":")))
    return 0 if result.correct else 1


def run_all(names, args) -> int:
    """Each workload in its own process, so peak memory and imports are its own."""
    code = 0
    for name in names:
        print(f"## {name}", flush=True)
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
