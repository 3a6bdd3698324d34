"""The ``repro`` command-line interface.

Entry points: ``python -m repro`` (always available with ``PYTHONPATH=src``)
and the ``repro`` console script installed by ``setup.py``.

Commands::

    repro sweep run    FILE [--workers N] [--store PATH] [--serial]
    repro sweep status FILE [--store PATH]
    repro sweep report FILE [--store PATH] [--group-by AXES] [--metric M]
                            [--include-failed] [--json]
    repro sweep pareto FILE [--store PATH] [--cost M] [--benefit M]
                            [--all] [--csv | --json]
    repro formats list [--family posit|float|fixed]
    repro export (--config FILE | --store FILE [--objective accuracy|energy])
                 --output PATH [--format SPEC] [--format-map NAME=SPEC ...]
                 [--no-scaling] [--no-calibrate]
                 [--guardrail-samples N] [--guardrail-tolerance F]
                 [--no-guardrail]
    repro serve  ARTIFACT [--workers N] [--max-restarts N] [--host H]
                 [--port P] [--max-batch N] [--max-wait-ms F]
                 [--queue-size N] [--slo-p99-ms F]
                 [--min-workers N] [--max-workers N] [--no-autoscale]
                 [--trace] [--trace-sample-rate F] [--trace-file PATH]
                 [--no-activation-quant] [--no-guardrail]
    repro trace summary FILE [--slow-ms F] [--json]
    repro trace export  FILE --output PATH
    repro artifact inspect FILE [--json]

Sweep files are committed JSON / YAML-lite documents (see
``examples/sweeps/``); results accumulate in append-only JSONL stores, so
``sweep run`` is restartable and incremental by construction.  ``export``
packs a trained model into an n-bit artifact (training it first when given
a config, re-training the store's best cell when given a sweep store) —
since artifact v2 each tensor is packed in its own format, defaulting from
the training policy's role assignment with ``--format-map`` per-tensor
overrides — and
``serve`` exposes it over HTTP with dynamic micro-batching — one engine in
process by default, or ``--workers N`` supervised engine processes behind
the same listener, also when N is 1 but the autoscaler may run more
(``--max-workers`` or ``--min-workers`` above 1).  Exports embed a v1.1
startup guardrail (a held-out calibration batch plus its expected logits)
that every serving process replays before accepting traffic
(:mod:`repro.serve`).

``serve`` runs the adaptive control plane by default: a periodic
controller autoscales the worker count between ``--min-workers`` and
``--max-workers`` (never past the cores the process may use: its
affinity mask, capped by the cgroup CPU quota), AIMD-tunes the
coalescing wait against ``--slo-p99-ms``, and sheds overload as HTTP 429 +
``Retry-After`` instead of failing requests; ``--no-autoscale`` pins the
worker count.  ``artifact inspect`` prints an artifact's manifest summary
(version, per-tensor formats, guardrail, segment table) from the header
alone — no blob decode, so it is instant on any size artifact.

``serve --trace`` turns on the :mod:`repro.obs` request tracer: every
sampled ``/predict`` is recorded as one span tree (admission → queue →
batch → codec → forward → respond), the trace id is echoed in the
``X-Repro-Trace-Id`` response header, and on shutdown the collected spans
are written to ``--trace-file`` as JSONL.  ``trace summary`` aggregates a
span JSONL into per-trace and per-stage tables; ``trace export`` converts
it to Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Posit DNN-training reproduction: sweep runner and format tools.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    sweep = subcommands.add_parser("sweep", help="declarative experiment sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_sweep_common(sub):
        sub.add_argument("file", help="sweep spec file (.json / .yaml)")
        sub.add_argument("--store", default=None,
                         help="JSONL result store (default: the spec's 'store' "
                              "or sweeps/<name>.jsonl)")

    run = sweep_sub.add_parser("run", help="execute missing sweep cells")
    add_sweep_common(run)
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default: the spec's 'workers')")
    run.add_argument("--serial", action="store_true",
                     help="run inline in this process (equivalent to --workers 1)")
    run.add_argument("--mp-context", default=None, choices=("fork", "spawn", "forkserver"),
                     help="multiprocessing start method (default: platform)")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    status = sweep_sub.add_parser("status", help="show store coverage of a sweep")
    add_sweep_common(status)
    status.add_argument("--json", action="store_true", help="machine-readable output")

    report = sweep_sub.add_parser("report", help="aggregate results into tables")
    add_sweep_common(report)
    report.add_argument("--group-by", default=None, metavar="AXES",
                        help="one axis label ('policy') for grouped means, or two "
                             "('policy x model') for a pivot table")
    report.add_argument("--metric", default="final_val_accuracy",
                        help="metric for grouped/pivot cells (default: final_val_accuracy)")
    report.add_argument("--include-failed", action="store_true",
                        help="include failed runs in the per-run rows")
    report.add_argument("--json", action="store_true", help="machine-readable output")

    pareto = sweep_sub.add_parser(
        "pareto", help="energy/accuracy Pareto front over a sweep's results")
    add_sweep_common(pareto)
    pareto.add_argument("--cost", default="total_energy_uj",
                        help="metric to minimize (default: total_energy_uj)")
    pareto.add_argument("--benefit", default="final_val_accuracy",
                        help="metric to maximize (default: final_val_accuracy)")
    pareto.add_argument("--all", action="store_true",
                        help="include dominated rows (flagged pareto=False)")
    pareto.add_argument("--csv", action="store_true", help="CSV output")
    pareto.add_argument("--json", action="store_true", help="machine-readable output")

    formats = subcommands.add_parser("formats", help="number-format registry tools")
    formats_sub = formats.add_subparsers(dest="formats_command", required=True)
    formats_list = formats_sub.add_parser("list", help="list registered formats")
    formats_list.add_argument("--family", default=None,
                              choices=("posit", "float", "fixed"),
                              help="restrict to one format family")
    formats_list.add_argument("--json", action="store_true",
                              help="machine-readable output")

    export = subcommands.add_parser(
        "export", help="train/pick a model and pack it into a serving artifact")
    source = export.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", default=None,
                        help="experiment config JSON file to train and export")
    source.add_argument("--store", default=None,
                        help="sweep result store; re-trains and exports its best run")
    export.add_argument("--output", "-o", required=True,
                        help="artifact output path (e.g. model.rpak)")
    export.add_argument("--format", dest="fmt", default=None, metavar="SPEC",
                        help="uniform storage format spec (default: per-tensor "
                             "formats inferred from the policy's weight roles)")
    export.add_argument("--format-map", dest="format_map", action="append",
                        default=None, metavar="NAME=SPEC",
                        help="per-tensor storage override: exact parameter "
                             "name or fnmatch pattern = registry spec, e.g. "
                             "layers.0.weight=posit(6,1) or "
                             "'features.*.weight=fixed(16,13)'; repeatable")
    export.add_argument("--objective", default="accuracy",
                        choices=("accuracy", "energy"),
                        help="best-run criterion for --store (default: accuracy)")
    export.add_argument("--rounding", default="nearest",
                        help="rounding mode for weight encoding (default: nearest)")
    export.add_argument("--no-scaling", action="store_true",
                        help="disable Eq. (2) per-tensor weight scaling")
    export.add_argument("--no-calibrate", action="store_true",
                        help="skip the activation-scale calibration pass")
    export.add_argument("--guardrail-samples", type=int, default=16,
                        help="held-out samples recorded in the v1.1 startup "
                             "guardrail block (default: 16; 0 disables)")
    export.add_argument("--guardrail-tolerance", type=float, default=0.0,
                        help="allowed |accuracy - reference| drift at startup "
                             "replay (default: 0.0)")
    export.add_argument("--no-guardrail", action="store_true",
                        help="do not embed a guardrail block "
                             "(same as --guardrail-samples 0)")

    serve = subcommands.add_parser(
        "serve", help="serve a packed artifact over HTTP with micro-batching")
    serve.add_argument("artifact", help="packed artifact file (repro export output)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--workers", type=int, default=1,
                       help="engine worker processes behind the listener "
                            "(default: 1; served by an in-process engine "
                            "unless the autoscaler may run more workers: "
                            "--max-workers or --min-workers above 1)")
    serve.add_argument("--max-restarts", type=int, default=2,
                       help="crash-restart budget per worker (default: 2)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch size cap (default: 32)")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="cap on the wait for batch-mates, taken only "
                            "while company is likely (requests already queued, "
                            "or the last batch had company); a lone request "
                            "runs at once (default: 2)")
    serve.add_argument("--queue-size", type=int, default=None,
                       help="bounded admission queue per engine; overflow is "
                            "shed as HTTP 429 + Retry-After (default: 4096)")
    serve.add_argument("--slo-p99-ms", type=float, default=50.0,
                       help="p99 latency objective the controller tunes the "
                            "coalescing wait against (default: 50)")
    serve.add_argument("--min-workers", type=int, default=1,
                       help="autoscaler floor on worker processes (default: 1)")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="autoscaler ceiling on worker processes "
                            "(default: --workers; always capped at the usable "
                            "cores: affinity mask and cgroup CPU quota)")
    serve.add_argument("--no-autoscale", action="store_true",
                       help="pin the worker count (the controller still tunes "
                            "the coalescing wait and grades load)")
    serve.add_argument("--no-control", action="store_true",
                       help="disable the control loop entirely (static "
                            "max_wait_ms and worker count)")
    serve.add_argument("--trace", action="store_true",
                       help="record per-request span traces (admission → "
                            "queue → batch → codec → forward → respond) and "
                            "echo X-Repro-Trace-Id on responses")
    serve.add_argument("--trace-sample-rate", type=float, default=1.0,
                       metavar="F",
                       help="fraction of requests traced when --trace is on "
                            "(default: 1.0; head-based, whole trace or none)")
    serve.add_argument("--trace-file", default=None, metavar="PATH",
                       help="write collected spans as JSONL on shutdown "
                            "(feed to 'repro trace summary|export')")
    serve.add_argument("--no-activation-quant", action="store_true",
                       help="run activations in FP32 (weights stay in the "
                            "artifact format)")
    serve.add_argument("--no-guardrail", action="store_true",
                       help="skip the startup guardrail replay (serve even if "
                            "the artifact cannot reproduce its recorded logits)")

    trace = subcommands.add_parser(
        "trace", help="inspect and convert span traces (repro.obs JSONL)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="per-trace and per-stage aggregates from a span JSONL")
    trace_summary.add_argument("file", help="span JSONL (serve --trace-file output)")
    trace_summary.add_argument("--slow-ms", type=float, default=None,
                               help="also list traces slower than this threshold")
    trace_summary.add_argument("--json", action="store_true",
                               help="machine-readable output")
    trace_export = trace_sub.add_parser(
        "export", help="convert a span JSONL to Chrome trace-event JSON")
    trace_export.add_argument("file", help="span JSONL (serve --trace-file output)")
    trace_export.add_argument("--output", "-o", required=True,
                              help="Chrome trace JSON output path (load in "
                                   "Perfetto or chrome://tracing)")

    artifact = subcommands.add_parser(
        "artifact", help="packed-artifact tools (header-only, no blob decode)")
    artifact_sub = artifact.add_subparsers(dest="artifact_command", required=True)
    inspect = artifact_sub.add_parser(
        "inspect", help="summarise an artifact's manifest without loading it")
    inspect.add_argument("file", help="packed artifact (repro export output)")
    inspect.add_argument("--segments", action="store_true",
                         help="also print the per-tensor segment table "
                              "(offsets, checksums)")
    inspect.add_argument("--json", action="store_true",
                         help="machine-readable output")
    return parser


# --------------------------------------------------------------------- #
# Command implementations (imports deferred so `repro --help` stays fast
# and argparse errors do not depend on numpy)
# --------------------------------------------------------------------- #
def _load_sweep(path: str):
    from .sweeps import SweepConfig

    return SweepConfig.from_file(path)


def _cmd_sweep_run(args) -> int:
    from .sweeps import run_sweep

    sweep = _load_sweep(args.file)
    workers = 1 if args.serial else args.workers
    progress = (lambda line: None) if args.quiet else print
    summary = run_sweep(sweep, store=args.store, workers=workers,
                        progress=progress, mp_context=args.mp_context)
    print(f"sweep {summary.sweep}: {summary.executed} executed, "
          f"{summary.skipped} skipped, {summary.failed} failed "
          f"(store: {summary.store_path})")
    return 0 if summary.failed == 0 else 1


def _cmd_sweep_status(args) -> int:
    from .sweeps import sweep_status

    sweep = _load_sweep(args.file)
    status = sweep_status(sweep, store=args.store)
    if args.json:
        print(json.dumps(status, indent=2, default=str))
    else:
        print(f"sweep {status['sweep']}  (store: {status['store']})")
        print(f"  total {status['total']}  ok {status['ok']}  "
              f"failed {status['failed']}  pending {status['pending']}")
        if status["skipped_lines"]:
            print(f"  note: {status['skipped_lines']} malformed store line(s) ignored")
        for row in status["runs"]:
            print(f"  [{row['status']:>7}] {row['run_id']}  {row['name']}")
    return 0 if status["pending"] == 0 and status["failed"] == 0 else 1


def _cmd_sweep_report(args) -> int:
    from .sweeps import format_pivot, format_table, sweep_report

    sweep = _load_sweep(args.file)
    try:
        report = sweep_report(sweep, store=args.store, group=args.group_by,
                              metric=args.metric, include_failed=args.include_failed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, default=str))
        return 0
    print(f"sweep {report['sweep']}: {len(report['rows'])} result row(s)")
    if report["rows"]:
        print()
        print(format_table(report["rows"]))
    if "grouped" in report:
        print(f"\ngrouped by {args.group_by}:")
        print(format_table(report["grouped"]))
    if "pivot" in report:
        print(f"\n{report['pivot']['metric']} pivot ({args.group_by}):")
        print(format_pivot(report["pivot"]))
    return 0


def _cmd_sweep_pareto(args) -> int:
    from .sweeps import format_csv, format_table, pareto_front, result_rows

    sweep = _load_sweep(args.file)
    store = args.store or sweep.store or f"sweeps/{sweep.name}.jsonl"
    rows = result_rows(store, sweep=sweep)
    front = pareto_front(rows, cost=args.cost, benefit=args.benefit,
                         keep_dominated=args.all)
    if not front:
        print(f"error: no result rows carry both {args.cost!r} and "
              f"{args.benefit!r} (run the sweep with collect_energy for "
              f"energy metrics)", file=sys.stderr)
        return 2
    axis_labels = [axis.label for axis in sweep.axes]
    columns = ([label for label in axis_labels if any(label in row for row in front)]
               + [args.cost, args.benefit, "pareto"])
    if args.json:
        print(json.dumps(front, indent=2, default=str))
    elif args.csv:
        print(format_csv(front, columns=columns), end="")
    else:
        on_front = sum(1 for row in front if row.get("pareto"))
        print(f"sweep {sweep.name}: pareto front over "
              f"{args.cost} (min) x {args.benefit} (max) — "
              f"{on_front} of {len(rows)} run(s) on the front")
        print()
        print(format_table(front, columns=columns))
    return 0


def _parse_format_map(entries) -> Optional[dict]:
    """``NAME=SPEC`` CLI entries -> ordered mapping (first match wins)."""
    if not entries:
        return None
    mapping = {}
    for entry in entries:
        name, separator, spec = entry.partition("=")
        if not separator or not name.strip() or not spec.strip():
            raise ValueError(
                f"--format-map expects NAME=SPEC "
                f"(e.g. layers.0.weight=posit(6,1)), got {entry!r}")
        name = name.strip()
        if name in mapping:
            # Silently letting the last duplicate win would ship the wrong
            # precision without a trace (stale flag left in a script).
            raise ValueError(
                f"--format-map given twice for {name!r} "
                f"({mapping[name]!r} and {spec.strip()!r})")
        mapping[name] = spec.strip()
    return mapping


def _cmd_export(args) -> int:
    from .serve import format_breakdown, serve_best, train_and_export

    guardrail_samples = 0 if args.no_guardrail else args.guardrail_samples
    format_map = _parse_format_map(args.format_map)
    if args.store:
        manifest, record = serve_best(args.store, args.output,
                                      objective=args.objective, fmt=args.fmt,
                                      rounding=args.rounding,
                                      use_scaling=not args.no_scaling,
                                      calibrate=not args.no_calibrate,
                                      guardrail_samples=guardrail_samples,
                                      guardrail_tolerance=args.guardrail_tolerance,
                                      format_map=format_map)
        print(f"exported best run {record.get('name')} "
              f"({args.objective}={manifest['metadata'].get('objective_value')})")
    else:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        manifest, history = train_and_export(
            config, args.output, fmt=args.fmt, rounding=args.rounding,
            use_scaling=not args.no_scaling, calibrate=not args.no_calibrate,
            guardrail_samples=guardrail_samples,
            guardrail_tolerance=args.guardrail_tolerance,
            format_map=format_map)
        print(f"trained {config.get('name', 'experiment')}: "
              f"val_acc={history.final_val_accuracy:.3f}")

    size = os.path.getsize(args.output)
    fp32 = manifest["fp32_state_nbytes"]
    line = f"artifact: {args.output}  format={manifest['format']}  {size} bytes"
    if size < fp32:
        line += f" (fp32 state: {fp32} bytes, {fp32 / size:.2f}x smaller)"
    print(line)
    param_specs = {entry["format"] for entry in manifest["tensors"]
                   if entry["kind"] == "param"}
    if len(param_specs) > 1:
        breakdown = format_breakdown(manifest)
        print("per-tensor formats: "
              + "  ".join(f"{spec}: {row['tensors']} tensors, {row['nbytes']} B"
                          for spec, row in sorted(breakdown.items())))
    guardrail = manifest.get("guardrail")
    if guardrail:
        print(f"guardrail: {guardrail['samples']} held-out samples, "
              f"reference accuracy {guardrail['reference_accuracy']:.3f} "
              f"± {guardrail['tolerance']}")
    return 0


def _cmd_serve(args) -> int:
    from .serve import (
        BatchingConfig,
        ClusterConfig,
        ControlConfig,
        Controller,
        InferenceEngine,
        ModelServer,
        ServeCluster,
    )

    batching_kwargs = {"max_batch": args.max_batch,
                       "max_wait_ms": args.max_wait_ms}
    if args.queue_size is not None:
        batching_kwargs["queue_size"] = args.queue_size
    batching = BatchingConfig(**batching_kwargs)
    tracing = None
    if args.trace:
        from .obs import TraceConfig

        tracing = TraceConfig(enabled=True,
                              sample_rate=args.trace_sample_rate,
                              slow_ms=args.slo_p99_ms)
    max_workers = args.max_workers if args.max_workers is not None else args.workers
    control = ControlConfig(slo_p99_ms=args.slo_p99_ms,
                            min_workers=args.min_workers,
                            max_workers=max(max_workers, args.min_workers),
                            autoscale=not args.no_autoscale,
                            wait_max_ms=max(args.max_wait_ms,
                                            ControlConfig().wait_max_ms))
    autoscaling = not (args.no_control or args.no_autoscale)
    if args.workers > 1 or (autoscaling and control.max_workers > 1):
        backend = ServeCluster(
            args.artifact,
            ClusterConfig(workers=args.workers, max_restarts=args.max_restarts),
            batching=batching,
            quantize_activations=not args.no_activation_quant,
            verify_guardrail=not args.no_guardrail,
            tracing=tracing)
        served = args.artifact
        detail = (f"{args.workers} worker processes, guardrail "
                  f"{'off' if args.no_guardrail else 'on'}; BLAS threads per "
                  f"worker: {backend.blas_threads_budget} of "
                  f"{backend.effective_cores} cores")
    else:
        backend = InferenceEngine(
            args.artifact, batching,
            quantize_activations=not args.no_activation_quant,
            verify_guardrail=not args.no_guardrail,
            tracing=tracing)
        served = f"{args.artifact} [{backend.format.spec()}]"
        detail = f"guardrail: {backend.guardrail_status}"
    # Scale/AIMD decisions surface in /stats and /metrics.
    controller = None if args.no_control else Controller(backend, control)
    server = ModelServer(backend, host=args.host, port=args.port,
                         controller=controller)
    print(f"serving {served} on {server.url} ({detail})")
    print(f"  POST {server.url}/predict   "
          f"GET {server.url}/healthz|/stats|/metrics"
          + ("|/traces" if tracing is not None else ""))
    print(f"  micro-batching: max_batch={args.max_batch} "
          f"max_wait_ms={args.max_wait_ms}")
    if controller is not None:
        controller.start()
        print(f"  control: slo_p99_ms={args.slo_p99_ms} "
              f"workers=[{control.min_workers}, {control.max_workers}] "
              f"(cpu cap: {controller.worker_cap}) "
              f"autoscale={'off' if args.no_autoscale else 'on'}")
    if tracing is not None:
        print(f"  tracing: sample_rate={tracing.sample_rate} "
              f"slow_ms={tracing.slow_ms}"
              + (f" -> {args.trace_file}" if args.trace_file else ""))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        if controller is not None:
            controller.stop()
        backend.stop()
        if args.trace_file and tracing is not None:
            from .obs import write_jsonl

            spans = backend.tracer.spans()
            write_jsonl(spans, args.trace_file)
            print(f"wrote {len(spans)} span(s) to {args.trace_file}")
    return 0


def _cmd_trace_summary(args) -> int:
    from .obs import read_jsonl, summarize_traces

    spans = read_jsonl(args.file)
    if not spans:
        print(f"error: no spans in {args.file}", file=sys.stderr)
        return 2
    summary = summarize_traces(spans, slow_ms=args.slow_ms)
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
        return 0
    from .sweeps import format_table

    print(f"{args.file}: {len(spans)} span(s), "
          f"{len(summary['traces'])} trace(s)")
    print()
    print("per-stage aggregates:")
    stage_rows = [{"stage": name, **row}
                  for name, row in summary["stages"].items()]
    print(format_table(stage_rows, columns=("stage", "count", "total_ms",
                                            "mean_ms", "max_ms")))
    print()
    print("slowest traces:")
    trace_rows = [{"trace": row["trace_id"][:16], "root": row["root"],
                   "spans": row["spans"],
                   "duration_ms": round(row["duration_ms"], 3)}
                  for row in summary["traces"][:10]]
    print(format_table(trace_rows, columns=("trace", "root", "spans",
                                            "duration_ms")))
    if args.slow_ms is not None:
        slow = summary.get("slow_traces", [])
        print(f"\n{len(slow)} trace(s) over {args.slow_ms} ms")
    return 0


def _cmd_trace_export(args) -> int:
    from .obs import read_jsonl, to_chrome_trace, validate_chrome_trace, write_chrome_trace

    spans = read_jsonl(args.file)
    if not spans:
        print(f"error: no spans in {args.file}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(to_chrome_trace(spans))
    if problems:
        print("error: generated trace fails validation: "
              + "; ".join(problems), file=sys.stderr)
        return 2
    write_chrome_trace(spans, args.output)
    print(f"wrote {len(spans)} event(s) to {args.output} "
          f"(load in Perfetto or chrome://tracing)")
    return 0


def _cmd_artifact_inspect(args) -> int:
    from .serve import format_breakdown, read_manifest, segment_table

    manifest = read_manifest(args.file)
    breakdown = format_breakdown(manifest)
    guardrail = manifest.get("guardrail")
    size = os.path.getsize(args.file)
    fp32 = manifest.get("fp32_state_nbytes", 0)
    summary = {
        "artifact": args.file,
        "version": manifest.get("version"),
        "format": manifest.get("format"),
        "model": manifest.get("model"),
        "file_bytes": size,
        "fp32_state_nbytes": fp32,
        "tensors": len(manifest.get("tensors", ())),
        "formats": breakdown,
        "guardrail": ({"samples": guardrail.get("samples"),
                       "reference_accuracy": guardrail.get("reference_accuracy"),
                       "tolerance": guardrail.get("tolerance")}
                      if guardrail else None),
    }
    if args.segments or args.json:
        summary["segments"] = segment_table(args.file)
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
        return 0
    print(f"artifact: {args.file}  v{summary['version']}  "
          f"format={summary['format']}  {size} bytes"
          + (f" (fp32 state: {fp32} bytes, {fp32 / size:.2f}x smaller)"
             if size and fp32 > size else ""))
    model = summary["model"]
    model_label = (model.get("model", "?") if isinstance(model, dict) else model)
    print(f"  model: {model_label}  tensors: {summary['tensors']}")
    for spec, row in sorted(breakdown.items()):
        print(f"  format {spec}: {row['tensors']} tensors, {row['nbytes']} B")
    if guardrail:
        print(f"  guardrail: {guardrail['samples']} held-out samples, "
              f"reference accuracy {guardrail['reference_accuracy']:.3f} "
              f"± {guardrail['tolerance']}")
    else:
        print("  guardrail: none")
    if args.segments:
        for row in summary["segments"]:
            print(f"  segment {row['name']}  kind={row['kind']} "
                  f"format={row['format']} shape={row['shape']} "
                  f"offset={row['file_offset']} nbytes={row['nbytes']}")
    return 0


def _cmd_formats_list(args) -> int:
    from .formats import available_formats

    families = {"posit": "PositConfig", "float": "FloatFormat", "fixed": "FixedPointFormat"}
    rows = []
    for key, fmt in sorted(available_formats().items()):
        if args.family and type(fmt).__name__ != families[args.family]:
            continue
        rows.append({
            "spec": key,
            "canonical": fmt.spec(),
            "family": type(fmt).__name__,
            "bits": fmt.bits,
            "maxpos": fmt.maxpos,
            "minpos": fmt.minpos,
        })
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
    else:
        from .sweeps import format_table

        print(format_table(rows, columns=("spec", "canonical", "family",
                                          "bits", "maxpos", "minpos")))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        handler = {"run": _cmd_sweep_run, "status": _cmd_sweep_status,
                   "report": _cmd_sweep_report,
                   "pareto": _cmd_sweep_pareto}[args.sweep_command]
    elif args.command == "export":
        handler = _cmd_export
    elif args.command == "serve":
        handler = _cmd_serve
    elif args.command == "trace":
        handler = {"summary": _cmd_trace_summary,
                   "export": _cmd_trace_export}[args.trace_command]
    elif args.command == "artifact":
        handler = _cmd_artifact_inspect
    else:
        handler = _cmd_formats_list
    from .sweeps import SweepFileError

    try:
        return handler(args)
    except (FileNotFoundError, SweepFileError, ValueError) as exc:
        # ValueError covers the domain errors the commands raise on bad
        # input — ArtifactError, unknown objectives/metrics, empty stores.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # Only the serving refusals get the exit-3 contract; any other
        # RuntimeError is a genuine bug and must keep its traceback.
        from .serve.cluster import ClusterError
        from .serve.engine import GuardrailError

        if isinstance(exc, (GuardrailError, ClusterError)):
            print(f"error: refusing to serve: {exc}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
