"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that yields the per-layer metrics and ``trace.overhead_pct``.
Every workload checks its outputs.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the human-readable report, and the same report is appended as
one JSON row to ``.perfbench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Every run ends well inside the 180 s a run is allowed.
RUN_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog
    from perfbench.harness import Context
    from perfbench.host import host_facts

    if args.workload not in catalog.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(catalog.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = catalog.load_spec(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    ctx = Context(root=ROOT, out=out, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace))
    started = time.perf_counter()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    outcome = workload.run(ctx)
    signal.alarm(0)

    if ctx.trace:
        names = [metric["name"] for metric in spec["per_layer"]]
        missing = catalog.required(args.workload) - outcome.metrics.keys()
    else:
        names = [metric["name"] for metric in spec["end_to_end"]]
        missing = set(names) - outcome.metrics.keys()
    unknown = outcome.metrics.keys() - set(names)
    if missing or unknown:
        raise RuntimeError(f"{args.workload}: missing metrics {sorted(missing)}, "
                           f"unknown metrics {sorted(unknown)}")
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": units[name]}
               for name in names}

    row = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "host": host_facts(ROOT, args.seed),
        "phases": {name: asdict(phase) for name, phase in outcome.phases.items()},
        "checks": outcome.checks,
        "report": outcome.report,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
    }
    with open(out / "results.jsonl", "a") as results:
        results.write(json.dumps(row) + "\n")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={row['wall_s']:.1f}s")
    print("host " + json.dumps(row["host"]))
    for name, phase in row["phases"].items():
        print(f"phase {name}: " + " ".join(f"{key}={value}" for key, value in phase.items()))
    for name, passed in outcome.checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    for name, value in outcome.report.items():
        print(f"report {name}: {json.dumps(value)}")
    for name, entry in metrics.items():
        print(f"metric {name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
