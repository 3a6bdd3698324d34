"""Workload ``train_posit``: the paper's training step, quantized from the first step.

``cifar_resnet`` (repo defaults) on ``cifar_like`` 32x32 images under the
``cifar_paper`` policy (posit(8,1)/(8,2) conv, posit(16,1)/(16,2) BN), with
``warmup_epochs=0`` so every step runs the posit transformation, batch 16.
The benchmark drives each step itself: forward and loss, ``backward()``,
``optimizer.step()``.  Most of the work is autograd, the codec and scaling;
none is serving.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from repro.api import ExperimentConfig, build_experiment, clear_dataset_cache
from repro.core.scaling import ScaleEstimator
from repro.core.transform import RoleStats
from repro.formats import clear_quantizer_cache
from repro.formats.kernels import clear_kernel_cache
from repro.obs import disable_profiling, enable_profiling, profile_snapshot, reset_profile
from repro.tensor import Tensor

from . import codec
from .harness import Context, Outcome, Phase, repeated_setup
from .host import peak_rss_mb
from .probes import Probes, breakdown
from .stats import median, tail

BATCH = 16
TRAIN_SIZE = 512


def config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name="train_posit", dataset="cifar_like", model="cifar_resnet",
        policy="cifar_paper", warmup_epochs=0, batch_size=BATCH,
        train_size=TRAIN_SIZE, test_size=BATCH, seed=seed, data_seed=seed)


def _forever(loader):
    while True:
        yield from loader


class Trainer:
    """A built experiment and the step loop the benchmark drives."""

    def __init__(self, seed: int):
        # Every set-up pays dataset generation and the codec table builds.
        clear_dataset_cache()
        clear_kernel_cache()
        clear_quantizer_cache()
        self.experiment = build_experiment(config(seed))
        self.experiment.model.train(True)
        self.feed = _forever(self.experiment.train_loader)
        self.losses: list[float] = []
        self.step()  # warm-up: first-call allocations and lazy tables

    def step(self, span=None) -> dict:
        """One training step; returns its phase times in seconds and its loss."""
        span = span or (lambda name, codec=False: contextlib.nullcontext())
        experiment = self.experiment
        model, optimizer = experiment.model, experiment.optimizer
        with span("step", codec=True):
            started = time.perf_counter()
            with span("data"):
                inputs, labels = next(self.feed)
            fetched = time.perf_counter()
            with span("forward", codec=True):
                loss = experiment.trainer.loss_fn(model(Tensor(inputs)), labels)
            forwarded = time.perf_counter()
            model.zero_grad()
            with span("backward", codec=True):
                loss.backward()
            backwarded = time.perf_counter()
            with span("update", codec=True):
                optimizer.step()
            ended = time.perf_counter()
        value = loss.item()
        self.losses.append(value)
        return {"data_s": fetched - started, "forward_s": forwarded - fetched,
                "backward_s": backwarded - forwarded, "update_s": ended - backwarded,
                "step_s": ended - started, "loss": value}

    def run(self, seconds: float = math.inf, count: int = 0, span=None) -> list[dict]:
        """Steps until ``seconds`` pass (at least 11, for a tail) or ``count`` are done."""
        steps = []
        deadline = time.perf_counter() + seconds
        while (len(steps) < count if count
               else time.perf_counter() < deadline or len(steps) <= 10):
            steps.append(self.step(span))
        return steps


def _steps_summary(steps: list[dict], elapsed_s: float) -> dict:
    step_ms = [step["step_s"] * 1e3 for step in steps]
    tail_ms, tail_at = tail(step_ms)
    return {"step_p50_ms": median(step_ms), "step_tail_ms": tail_ms,
            "tail_percentile": tail_at,
            "train_samples_per_s": BATCH * len(steps) / elapsed_s,
            "train_loss_final": steps[-1]["loss"]}


def _finite(steps: list[dict]) -> Phase:
    bad = sum(not np.isfinite(step["loss"]) for step in steps)
    return Phase(attempted=len(steps), succeeded=len(steps) - bad, failed=bad)


def run(ctx: Context) -> Outcome:
    trainer, setup_s, _ = repeated_setup(lambda: (Trainer(ctx.seed), {}), lambda _: None)
    if ctx.trace:
        return _traced(ctx, trainer)
    started = time.perf_counter()
    steps = trainer.run(seconds=ctx.seconds)
    summary = _steps_summary(steps, time.perf_counter() - started)
    return Outcome(
        metrics={
            "latency_p50_ms": summary["step_p50_ms"],
            "latency_tail_ms": summary["step_tail_ms"],
            "throughput_per_s": summary["train_samples_per_s"],
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        },
        phases={"train": _finite(steps)},
        checks={"loss_finite_every_step": all(np.isfinite(s["loss"]) for s in steps)},
        report={**summary, "steps": len(steps)})


def traced_steps(seed: int, count: int) -> tuple[Trainer, list[dict], list, dict]:
    """``count`` probed steps on a fresh experiment.

    The quantizer cache is cleared and the process-wide codec profiler
    enabled *before* the experiment is built, so every quantizer the policy
    attaches is one the profiler counts.
    """
    clear_quantizer_cache()
    enable_profiling()
    probes = Probes()
    try:
        probes.patch(ScaleEstimator, "scale_for", "scale")
        probes.patch(RoleStats, "record", "stats")
        trainer = Trainer(seed)
        reset_profile()
        steps = trainer.run(count=count, span=probes.span)
        snapshot = profile_snapshot()
    finally:
        probes.close()
        disable_profiling()
    return trainer, steps, probes, snapshot


def layer_metrics(probes: Probes, snapshot: dict) -> dict:
    spans = probes.spans()
    steps = breakdown(spans, "step")
    count = len(steps)

    def p50(name: str, key: str = "ms") -> float:
        return median([row[key] for row in breakdown(spans, name)])

    def total_ms(name: str) -> float:
        return sum(span.duration_ms for span in spans if span.name == name)

    elements = sum(entry["elements"] for ops in snapshot["formats"].values()
                   for entry in ops.values())
    return {
        "train.forward_ms": p50("forward"),
        "train.backward_ms": p50("backward"),
        "train.update_ms": p50("update"),
        "train.forward_self_ms": p50("forward", "self_ms"),
        "train.backward_self_ms": p50("backward", "self_ms"),
        "train.data_wait_ms": p50("data"),
        "scale.ms_per_step": total_ms("scale") / count,
        "scale.calls_per_step": sum(span.name == "scale" for span in spans) / count,
        "stats.ms_per_step": total_ms("stats") / count,
        "codec.ms_per_step": sum(row["codec_ms"] for row in steps) / count,
        "codec.elements_per_step": elements / count,
        **codec.cell_metrics(snapshot),
    }


def _traced(ctx: Context, trainer: Trainer) -> Outcome:
    """Untraced steps, then as many probed steps from an identical fresh build.

    Both runs start from the same seed, so their loss sequences must match
    exactly: the probes change no numerics.
    """
    started = time.perf_counter()
    plain_steps = trainer.run(seconds=0.5 * ctx.seconds)
    plain = _steps_summary(plain_steps, time.perf_counter() - started)
    started = time.perf_counter()
    traced_trainer, steps, probes, snapshot = traced_steps(ctx.seed, len(plain_steps))
    traced = _steps_summary(steps, time.perf_counter() - started)
    probes.write(ctx.out / f"train_posit-seed{ctx.seed}-spans.jsonl")
    metrics = layer_metrics(probes, snapshot)
    metrics["trace.overhead_pct"] = 100.0 * (traced["step_p50_ms"] / plain["step_p50_ms"] - 1.0)
    return Outcome(
        metrics=metrics,
        phases={"train": _finite(plain_steps), "train_traced": _finite(steps)},
        checks={"loss_finite_every_step": all(np.isfinite(trainer.losses + traced_trainer.losses)),
                "traced_losses_identical": traced_trainer.losses == trainer.losses,
                "traced_codec_time_positive": metrics["codec.ms_per_step"] > 0},
        report={"step_p50_ms": plain["step_p50_ms"],
                "traced_step_p50_ms": traced["step_p50_ms"], "steps": len(steps)})
