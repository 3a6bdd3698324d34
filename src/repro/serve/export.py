"""Export trained experiments — and sweep winners — as packed artifacts.

Bridges the training stack to the serving stack:

* :func:`export_experiment` — snapshot a built/trained
  :class:`repro.api.Experiment` into a packed artifact, recording enough
  architecture metadata for :func:`repro.serve.artifact.load_model` to
  rebuild the model unaided;
* :func:`train_and_export` — one-call train-then-export from an
  :class:`~repro.api.ExperimentConfig` (the ``repro export --config`` path);
* :func:`serve_best` — pick the best ``"ok"`` record of a sweep
  :class:`~repro.sweeps.store.ResultStore` by accuracy or energy,
  deterministically re-train its config (run ids are content hashes, and
  experiments seed every RNG from the config, so the re-run reproduces the
  sweep cell), and export it — the "promote the sweep winner to a serving
  artifact" path behind ``repro export --store``.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional, Union

import numpy as np

from ..core.policy import QuantizationPolicy, RoleFormats
from ..core.scaling import ScaleEstimator
from ..formats import NumberFormat, as_format
from ..sweeps.store import STATUS_OK, ResultStore
from ..tensor import Tensor, no_grad
from .artifact import save_model

__all__ = ["export_experiment", "train_and_export", "serve_best",
           "default_export_format", "default_export_format_map",
           "calibrate_activation_centers", "build_guardrail", "OBJECTIVES"]

#: Objective name -> (record metric extractor, pick-max?).
OBJECTIVES = {
    "accuracy": (lambda record: (record.get("metrics") or {}).get("final_val_accuracy"),
                 True),
    "energy": (lambda record: (record.get("energy") or {}).get("total_energy_uj"),
               False),
}


def default_export_format(policy) -> str:
    """Storage format spec inferred from a policy's forward weight formats.

    Picks the first non-None weight format in conv -> linear -> bn order
    (the widest-coverage role first); an unquantized policy (or ``None``)
    exports as ``"fp32"``.
    """
    if policy is not None:
        for role_formats in (policy.conv_formats, policy.linear_formats,
                             policy.bn_formats):
            if role_formats.weight is not None:
                return role_formats.weight.spec()
    return "fp32"


def default_export_format_map(policy, model) -> dict[str, str]:
    """Per-parameter storage spec map mirroring a policy's weight roles.

    The artifact-v2 default: every parameter of a layer the policy covers
    is stored in that layer's *weight* role format
    (:meth:`~repro.core.policy.QuantizationPolicy.export_formats`), so a
    mixed-precision policy — ``cifar_paper``'s posit(8,1) CONV next to
    posit(16,1) BN — exports a genuinely mixed artifact without the caller
    enumerating tensors.  Full-precision roles map to ``"fp32"`` (the
    registry's 32-bit float codec); uncovered parameters are absent and
    fall back to the exporter's default format.  ``{}`` when ``policy`` is
    ``None``.
    """
    if policy is None:
        return {}
    return {name: ("fp32" if role_format is None else role_format.spec())
            for name, role_format in policy.export_formats(model).items()}


class _ObservingEstimator(ScaleEstimator):
    """Calibrated-mode estimator that observes every tensor it scales.

    Used only for the export-time calibration pass: the EMA center it
    accumulates becomes the frozen serving-side activation scale.
    """

    def scale_for(self, x: np.ndarray) -> float:
        self.observe(x)
        return super().scale_for(x)


def calibrate_activation_centers(model, fmt: Union[NumberFormat, str], loader,
                                 rounding: str = "nearest", sigma: int = 2,
                                 max_batches: int = 1) -> dict[str, float]:
    """Freeze per-layer activation log2 centers from a calibration pass.

    Runs up to ``max_batches`` batches of ``loader`` through ``model`` with
    activation quantization in ``fmt`` attached, recording each quantized
    layer's Eq. (2) center.  The paper's remark that "based on the warm-up
    trained model, the scaling factor of each layer can be calculated" is
    exactly this: at serving time the scale must be a frozen constant — a
    dynamically computed Eq. (2) scale would make predictions depend on
    which micro-batch a request landed in.
    """
    fmt = as_format(fmt)
    formats = RoleFormats(weight=None, activation=fmt)
    policy = QuantizationPolicy(conv_formats=formats, bn_formats=formats,
                                linear_formats=formats, rounding=rounding,
                                use_scaling=True, sigma=sigma,
                                scale_mode="calibrated")
    # The model may belong to a live experiment whose trainer attached its
    # own policy contexts at construction time; snapshot them and restore
    # afterwards (a blanket detach would silently de-quantize any further
    # training/evaluation the caller does).
    previous_contexts = {name: module.quant
                         for name, module in model.named_modules()}
    was_training = model.training
    contexts = policy.attach(model)
    estimators: dict[str, _ObservingEstimator] = {}
    for name, context in contexts.items():
        if context.scalers.get("activation") is not None:
            observer = _ObservingEstimator(sigma=sigma, mode="calibrated")
            context.scalers["activation"] = observer
            estimators[name] = observer
    try:
        model.train(False)
        with no_grad():
            for index, (inputs, _labels) in enumerate(loader):
                model(Tensor(inputs))
                if index + 1 >= max_batches:
                    break
    finally:
        for name, module in model.named_modules():
            module.quant = previous_contexts.get(name)
        model.train(was_training)
    return {name: float(estimator.calibrated_center)
            for name, estimator in estimators.items()
            if estimator.calibrated_center is not None}


def build_guardrail(path: Union[str, os.PathLike], loader,
                    samples: int = 16, tolerance: float = 0.0,
                    quantize_activations: bool = True) -> dict:
    """Compute the v1.1 guardrail block for an already-written artifact.

    Loads ``path`` through the *serving* stack (an
    :class:`~repro.serve.engine.InferenceEngine` with the manifest's frozen
    activation calibration installed, guardrail verification off — the
    block does not exist yet) and runs the first ``samples`` held-out
    samples of ``loader`` through it.  The recorded logits are therefore
    exactly what a healthy serving process must reproduce, bit for bit, at
    startup; the recorded accuracy is the replay's accuracy over the same
    batch, so any drift beyond ``tolerance`` is a serving-side regression,
    not dataset noise.  The block also records the artifact's **per-tensor
    format specs** (``tensor_formats``), so a mixed-precision artifact
    whose manifest is later rewritten to different per-tensor widths is
    refused at startup even before the logits replay.
    """
    from .engine import InferenceEngine

    if samples < 1:
        raise ValueError(f"guardrail needs at least 1 sample, got {samples}")
    for inputs, labels in loader:
        batch = np.asarray(inputs, dtype=np.float64)[:samples]
        batch_labels = np.asarray(labels)[:samples]
        break
    else:
        raise ValueError("guardrail calibration loader yielded no batches")
    engine = InferenceEngine(path, quantize_activations=quantize_activations,
                             verify_guardrail=False)
    logits = engine.predict_batch(batch)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == batch_labels))
    return {
        "samples": int(batch.shape[0]),
        "inputs": batch.tolist(),
        "labels": [int(label) for label in batch_labels],
        "logits": logits.tolist(),
        "reference_accuracy": accuracy,
        "tolerance": float(tolerance),
        "quantize_activations": bool(quantize_activations),
        "tensor_formats": dict(engine.tensor_formats),
    }


def _model_info(experiment) -> dict:
    """Architecture block stored in the manifest (see ``_rebuild_model``)."""
    config = experiment.config
    sample_shape = experiment.train_loader.inputs.shape[1:]
    return {
        "model": config.model,
        "model_kwargs": dict(config.model_kwargs),
        "num_classes": config.num_classes,
        "seed": config.seed,
        "in_features": int(np.prod(sample_shape)) if sample_shape else 1,
        "input_shape": [int(dim) for dim in sample_shape],
    }


def _tensor_format_specs(experiment, fmt, format_map) -> dict[str, str]:
    """Resolve the final per-parameter spec map for an experiment export.

    Three layers, later wins: the base format (``fmt`` or the policy's
    inferred default) covers everything; with ``fmt=None`` the policy's
    role assignment (:func:`default_export_format_map`) applies per layer
    — the mixed-precision default; explicit ``format_map`` entries (exact
    names or fnmatch patterns, the ``repro export --format-map`` surface)
    override both.
    """
    from .artifact import resolve_format_map

    names = [name for name, _ in experiment.model.named_parameters()]
    base = default_export_format(experiment.policy) if fmt is None else fmt
    base_spec = as_format(base).spec()
    specs = {name: base_spec for name in names}
    if fmt is None:
        policy_map = default_export_format_map(experiment.policy,
                                               experiment.model)
        specs.update({name: spec for name, spec in policy_map.items()
                      if name in specs})
    overrides = resolve_format_map(names, None, format_map)
    specs.update({name: resolved.spec() for name, resolved in overrides.items()})
    return specs


def export_experiment(experiment, path: Union[str, os.PathLike],
                      fmt: Union[NumberFormat, str, None] = None,
                      rounding: str = "nearest",
                      use_scaling: bool = True, sigma: int = 2,
                      calibrate: bool = True,
                      calibration_batches: int = 1,
                      guardrail_samples: int = 16,
                      guardrail_tolerance: float = 0.0,
                      format_map: Optional[Mapping] = None,
                      metadata: Optional[Mapping] = None) -> dict:
    """Export a built (usually trained) experiment's model to ``path``.

    ``fmt=None`` infers the storage formats from the experiment's policy —
    the default format via :func:`default_export_format` plus the **per
    tensor** role assignment via :func:`default_export_format_map`, so a
    ``cifar_paper``-style mixed policy exports a mixed-precision v2
    artifact without the caller restating it (an explicit ``fmt`` forces a
    uniform export).  ``format_map`` adds per-tensor overrides on top of
    either (exact parameter names or fnmatch patterns -> registry specs).
    With ``calibrate=True`` (default) a calibration pass over the
    experiment's validation loader freezes per-layer activation scales into
    the manifest (:func:`calibrate_activation_centers`).  With
    ``guardrail_samples > 0`` (default 16) a held-out batch from the
    validation loader is replayed through the just-written artifact and
    recorded as the manifest's ``guardrail`` block
    (:func:`build_guardrail`, including the artifact's per-tensor specs) —
    the artifact is written twice, the second time with the recorded
    per-tensor scales, so the packed weights are byte-identical between
    the passes.  Returns the manifest.
    """
    base_fmt = as_format(default_export_format(experiment.policy)
                         if fmt is None else fmt)
    tensor_specs = _tensor_format_specs(experiment, fmt, format_map)
    extra = {"experiment": experiment.config.name,
             "formats": experiment.format_specs()}
    if metadata:
        extra.update(metadata)
    calibration = None
    if calibrate:
        centers = calibrate_activation_centers(
            experiment.model, base_fmt, experiment.val_loader,
            rounding=rounding, sigma=sigma, max_batches=calibration_batches)
        calibration = {"sigma": sigma, "centers": centers}
    manifest = save_model(experiment.model, path, fmt=base_fmt,
                          rounding=rounding,
                          use_scaling=use_scaling, sigma=sigma,
                          model_info=_model_info(experiment), metadata=extra,
                          activation_calibration=calibration,
                          format_map=tensor_specs)
    if guardrail_samples > 0:
        guardrail = build_guardrail(path, experiment.val_loader,
                                    samples=guardrail_samples,
                                    tolerance=guardrail_tolerance)
        scales = {entry["name"]: entry["scale"]
                  for entry in manifest["tensors"] if entry["kind"] == "param"}
        manifest = save_model(experiment.model, path, fmt=base_fmt,
                              rounding=rounding, use_scaling=use_scaling,
                              sigma=sigma, model_info=_model_info(experiment),
                              metadata=extra,
                              activation_calibration=calibration,
                              scales=scales, guardrail=guardrail,
                              format_map=tensor_specs)
    return manifest


def train_and_export(config, path: Union[str, os.PathLike],
                     fmt: Union[NumberFormat, str, None] = None,
                     rounding: str = "nearest", use_scaling: bool = True,
                     sigma: int = 2, calibrate: bool = True,
                     guardrail_samples: int = 16,
                     guardrail_tolerance: float = 0.0,
                     format_map: Optional[Mapping] = None,
                     metadata: Optional[Mapping] = None) -> tuple[dict, object]:
    """Train the experiment described by ``config``, then export it.

    ``config`` is an :class:`~repro.api.ExperimentConfig` or its dict form.
    Returns ``(manifest, history)``.
    """
    from ..api import build_experiment

    experiment = build_experiment(config)
    history = experiment.run()
    extra = {"final_val_accuracy": history.final_val_accuracy,
             "best_val_accuracy": history.best_val_accuracy}
    if metadata:
        extra.update(metadata)
    manifest = export_experiment(experiment, path, fmt=fmt, rounding=rounding,
                                 use_scaling=use_scaling, sigma=sigma,
                                 calibrate=calibrate,
                                 guardrail_samples=guardrail_samples,
                                 guardrail_tolerance=guardrail_tolerance,
                                 format_map=format_map,
                                 metadata=extra)
    return manifest, history


def pick_best_record(store: Union[ResultStore, str],
                     objective: str = "accuracy") -> dict:
    """Best ``"ok"`` record of a result store under the given objective.

    ``"accuracy"`` maximizes ``final_val_accuracy``; ``"energy"`` minimizes
    the accelerator estimate ``energy.total_energy_uj`` (requires the sweep
    to have run with ``collect_energy``).  Ties break toward the record
    with the lower recorded ``index`` (sweep declaration order).
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {sorted(OBJECTIVES)}")
    metric_of, maximize = OBJECTIVES[objective]
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    candidates = []
    for record in store.records().values():
        if record.get("status") != STATUS_OK:
            continue
        value = metric_of(record)
        if isinstance(value, (int, float)):
            candidates.append((record, float(value)))
    if not candidates:
        raise ValueError(
            f"store {store.path!r} has no ok records with the "
            f"{objective!r} metric (did the sweep run with collect_energy "
            f"for objective='energy'?)")
    sign = -1.0 if maximize else 1.0
    candidates.sort(key=lambda pair: (sign * pair[1],
                                      pair[0].get("index", 0),
                                      pair[0].get("run_id", "")))
    return candidates[0][0]


def serve_best(store: Union[ResultStore, str], path: Union[str, os.PathLike],
               objective: str = "accuracy",
               fmt: Union[NumberFormat, str, None] = None,
               rounding: str = "nearest", use_scaling: bool = True,
               sigma: int = 2, calibrate: bool = True,
               guardrail_samples: int = 16,
               guardrail_tolerance: float = 0.0,
               format_map: Optional[Mapping] = None) -> tuple[dict, dict]:
    """Re-train and export the best run of a sweep store.

    Returns ``(manifest, record)`` — the written artifact's manifest and the
    winning store record.  The record's stored config is re-trained
    deterministically (config-seeded RNGs), so the exported weights realize
    the sweep cell the store reported.  The encoding knobs (``rounding``,
    ``use_scaling``, ``sigma``, ``calibrate``) mirror
    :func:`train_and_export`.
    """
    record = pick_best_record(store, objective=objective)
    metric_of, _ = OBJECTIVES[objective]
    manifest, _history = train_and_export(
        record["config"], path, fmt=fmt, rounding=rounding,
        use_scaling=use_scaling, sigma=sigma, calibrate=calibrate,
        guardrail_samples=guardrail_samples,
        guardrail_tolerance=guardrail_tolerance,
        format_map=format_map,
        metadata={"sweep_run_id": record.get("run_id"),
                  "sweep_run_name": record.get("name"),
                  "objective": objective,
                  "objective_value": metric_of(record)})
    return manifest, record
