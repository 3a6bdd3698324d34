"""repro — reproduction of "Training Deep Neural Networks Using Posit Number System".

Lu et al., SOCC 2019 (arXiv:1909.03831).

Quickstart
----------
The high-level API wires a complete experiment from plain data::

    from repro.api import ExperimentConfig, build_experiment

    config = ExperimentConfig(dataset="cifar_like", model="cifar_resnet",
                              policy="cifar_paper", epochs=4, warmup_epochs=1)
    history = build_experiment(config).run()

Policies and number formats are declarative: any registry spec string —
``"posit(8,1)"``, ``"fp8_e4m3"``, ``"fixed(16,13)"``, ``"fp32"`` — or a
policy preset/dict resolves through :func:`repro.api.build_policy`, and
``ExperimentConfig`` round-trips through JSON-able dicts.

Architecture
------------
The package is organised as the paper's contribution (:mod:`repro.core`) on
top of self-contained substrates:

* :mod:`repro.formats` — the unified number-format type system: the
  :class:`~repro.formats.NumberFormat` protocol (implemented by posit,
  float, and fixed-point formats), the spec-string registry
  (:func:`~repro.formats.parse_format`), and the cached quantizer factory
  (:func:`~repro.formats.get_quantizer`).
* :mod:`repro.posit` — the posit number system (bit-exact scalars, fast
  vectorized quantization, quire, value tables) plus low-bit float formats.
* :mod:`repro.tensor` / :mod:`repro.nn` / :mod:`repro.optim` — a NumPy
  autograd engine, layers, and optimizers replacing PyTorch.
* :mod:`repro.models` — ResNet-18 variants (Cifar and ImageNet stems).
* :mod:`repro.data` — synthetic Cifar-like / ImageNet-like datasets.
* :mod:`repro.core` — the posit training methodology: Fig. 3 quantization
  insertion, warm-up training, distribution-based shifting (Eq. 2/3),
  per-layer es policies (Table III), and the trainer.
* :mod:`repro.hardware` — functional + cost models of the posit MAC,
  decoder, and encoder architectures (Figs. 4-6, Tables IV-V).
* :mod:`repro.baselines` — fixed-point and low-bit float training recipes.
* :mod:`repro.analysis` — distribution and quantization-error analysis
  (Fig. 2 and the motivation studies).
* :mod:`repro.api` — the high-level experiment API shown above.
* :mod:`repro.sweeps` — the declarative sweep engine: grid/zip axes over
  experiment configs, parallel sharded execution with resume, the
  append-only JSONL result store, and the aggregation/report layer
  (including energy/accuracy Pareto fronts).
* :mod:`repro.serve` — the deployment subsystem: packed n-bit model
  artifacts (``save_model``/``load_model``), the micro-batching
  :class:`~repro.serve.InferenceEngine`, the dependency-free HTTP transport
  (``/predict``, ``/healthz``, ``/stats``), sweep-winner export
  (``serve_best``), and the closed-loop load generator.
* :mod:`repro.cli` — the ``repro`` command line (``python -m repro``):
  ``sweep run / status / report / pareto``, ``formats list``,
  ``export``, and ``serve``.

Migration note (union-based formats -> NumberFormat protocol)
-------------------------------------------------------------
Earlier versions modelled a tensor format as the ad-hoc union
``Format = Union[PositConfig, FloatFormat, None]``, with fixed point bolted
on through a duck-typed hook in ``repro.baselines``.  Formats are now
uniform :class:`~repro.formats.NumberFormat` values:

* ``FixedPointFormat`` moved to :mod:`repro.formats` (``repro.baselines``
  re-exports it, so old imports keep working);
* every format carries ``quantize`` / ``to_bits`` / ``from_bits`` /
  ``maxpos`` / ``minpos`` / ``bits`` / ``name`` / ``spec()``;
* policies accept spec strings anywhere they accepted format objects
  (``RoleFormats.from_specs``, ``QuantizationPolicy.from_dict`` /
  ``to_dict`` / ``uniform_format``), and ``PositTrainer`` accepts preset
  names and policy dicts directly;
* quantizers come from the cached :func:`repro.formats.get_quantizer`;
  the per-family quantizer classes were removed.

The legacy ``Format`` alias (and the ``repro.baselines.fixedpoint`` shim
module) completed their deprecation window and were removed; annotate with
:data:`repro.core.TensorFormat` (``Optional[NumberFormat]``) instead.  No
public constructor changed signature.
"""

from .api import ExperimentConfig, build_experiment, build_policy, run_experiment
from .core import (
    PositTrainer,
    QuantizationPolicy,
    RoleFormats,
    ScaleEstimator,
    WarmupSchedule,
    compute_scale_factor,
)
from .formats import (
    FixedPointFormat,
    NumberFormat,
    as_format,
    available_formats,
    get_quantizer,
    parse_format,
)
from .posit import (
    PositConfig,
    PositScalar,
    quantize,
    quantize_to_bits,
)
from .sweeps import ResultStore, SweepAxis, SweepConfig, run_sweep, sweep_report

__version__ = "0.3.0"

__all__ = [
    "__version__",
    # formats
    "NumberFormat",
    "FixedPointFormat",
    "parse_format",
    "as_format",
    "available_formats",
    "get_quantizer",
    # posit substrate
    "PositConfig",
    "PositScalar",
    "quantize",
    "quantize_to_bits",
    # training methodology
    "PositTrainer",
    "QuantizationPolicy",
    "RoleFormats",
    "WarmupSchedule",
    "ScaleEstimator",
    "compute_scale_factor",
    # high-level API
    "ExperimentConfig",
    "build_experiment",
    "build_policy",
    "run_experiment",
    # sweep engine
    "SweepConfig",
    "SweepAxis",
    "ResultStore",
    "run_sweep",
    "sweep_report",
]
