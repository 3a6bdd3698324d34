"""Quantization policies: which format goes where (§III-B "Adjust Dynamic Range").

A :class:`QuantizationPolicy` decides, for every layer and every tensor role
(weights, activations, errors, weight gradients), which number format to use
and whether distribution-based shifting is applied.  The paper's concrete
choices are provided as factory methods:

* :meth:`QuantizationPolicy.cifar_paper` — Table III footnote 1:
  posit(8,1) for CONV forward/update, posit(8,2) for CONV backward,
  posit(16,1)/(16,2) for BN layers.
* :meth:`QuantizationPolicy.imagenet_paper` — Table III footnote 2:
  posit(16,1) for forward/update and posit(16,2) for backward, everywhere.
* :meth:`QuantizationPolicy.uniform` — the same ``(n, es_forward)`` /
  ``(n, es_backward)`` pair for every layer, used by the es-selection and
  word-size sweeps.
* :meth:`QuantizationPolicy.float_baseline` — FP16/FP8 fake quantization for
  the mixed-precision float baselines ([9], [10]).

The paper's qualitative criterion for choosing ``es`` — gradients/errors have
wider dynamic range than weights/activations, so they get ``es = 2`` while
the forward tensors get ``es = 1`` — is what the default policies encode;
:mod:`repro.core.range_analysis` measures the ranges that justify it.

Formats are uniform :class:`~repro.formats.NumberFormat` values (posit,
float, or fixed point) and policies are constructible declaratively from
registry spec strings: :meth:`RoleFormats.from_specs`,
:meth:`QuantizationPolicy.from_dict` (the inverse of
:meth:`QuantizationPolicy.to_dict`), and
:meth:`QuantizationPolicy.uniform_format`.  Quantizer instances come from
the cached :func:`repro.formats.get_quantizer` factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from ..formats import NumberFormat, as_format, get_quantizer
from ..nn import BatchNorm2d, Conv2d, Linear, Module
from ..posit import FloatFormat, PositConfig
from .scaling import ScaleEstimator
from .transform import LayerQuantContext

__all__ = ["TensorFormat", "RoleFormats", "QuantizationPolicy"]

#: A tensor format: any :class:`~repro.formats.NumberFormat` or ``None`` (FP32).
#: (The pre-NumberFormat ``Format`` union alias went through its two-PR
#: deprecation window and was removed; annotate with ``TensorFormat``.)
TensorFormat = Optional[NumberFormat]

#: Role spec strings that mean "leave this tensor in full precision".  Note
#: that at the *policy* level ``"fp32"`` (and its named aliases) maps to
#: ``None`` (no quantizer at all); to fake-quantize through the FP32 grid
#: explicitly, pass the :data:`repro.posit.FP32` format object or the
#: structural spec ``"float(8,23)"``.  ``repro.api.build_policy`` uses the
#: same set so policy-level and role-level synonyms cannot diverge.
_FULL_PRECISION_SPECS = frozenset({"", "fp32", "none", "full", "float32"})


def _as_role_format(value: Union[NumberFormat, str, None]) -> TensorFormat:
    """Resolve one role entry: ``None``/"fp32"-style specs mean full precision."""
    if value is None:
        return None
    if isinstance(value, str) and value.strip().lower() in _FULL_PRECISION_SPECS:
        return None
    return as_format(value)


def _role_name(fmt: TensorFormat) -> str:
    """Round-trippable name for a role format (``"fp32"`` for ``None``)."""
    if fmt is None:
        return "fp32"
    if hasattr(fmt, "spec"):
        spec = fmt.spec()
        if spec in _FULL_PRECISION_SPECS:
            # An explicit FP32 FloatFormat role must not round-trip to None:
            # serialize it structurally so from_dict rebuilds a format with
            # identical quantization behaviour (the FP32 fast path keys on
            # exponent/mantissa widths, not on the named constant).
            return f"float({fmt.exponent_bits},{fmt.mantissa_bits})"
        return spec
    return str(fmt)


@dataclass(frozen=True)
class RoleFormats:
    """Number formats for the four tensor roles of one layer."""

    weight: TensorFormat = None
    activation: TensorFormat = None
    error: TensorFormat = None
    weight_grad: TensorFormat = None

    @classmethod
    def posit(cls, forward: PositConfig, backward: PositConfig) -> "RoleFormats":
        """Forward roles (weights/activations/ΔW-update) vs backward roles (errors/ΔW).

        Following Fig. 3 and the Table III footnotes, the *weight gradient* is
        produced by the backward pass and therefore uses the backward format,
        while the stored weights and activations use the forward format.
        """
        return cls(weight=forward, activation=forward, error=backward, weight_grad=backward)

    @classmethod
    def full_precision(cls) -> "RoleFormats":
        """All roles stay in FP32."""
        return cls()

    @classmethod
    def from_specs(cls, weight=None, activation=None, error=None,
                   weight_grad=None) -> "RoleFormats":
        """Build role formats from spec strings and/or format objects.

        Each role accepts a :class:`~repro.formats.NumberFormat`, a registry
        spec string (``"posit(8,1)"``, ``"fp8_e4m3"``, ``"fixed(16,13)"``),
        or ``None``/``"fp32"`` for full precision.
        """
        return cls(
            weight=_as_role_format(weight),
            activation=_as_role_format(activation),
            error=_as_role_format(error),
            weight_grad=_as_role_format(weight_grad),
        )

    @classmethod
    def uniform(cls, fmt: Union[NumberFormat, str, None]) -> "RoleFormats":
        """The same format (object or spec string) for all four roles."""
        resolved = _as_role_format(fmt)
        return cls(weight=resolved, activation=resolved,
                   error=resolved, weight_grad=resolved)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Union[NumberFormat, str, None]]) -> "RoleFormats":
        """Inverse of :meth:`as_dict`: build role formats from a plain dict."""
        roles = {"weight", "activation", "error", "weight_grad"}
        unknown = set(mapping) - roles
        if unknown:
            raise ValueError(
                f"unknown tensor roles {sorted(unknown)}; expected a subset of {sorted(roles)}"
            )
        return cls.from_specs(**mapping)

    def as_dict(self) -> dict:
        """Role-to-format mapping with round-trippable spec strings."""
        return {
            "weight": _role_name(self.weight),
            "activation": _role_name(self.activation),
            "error": _role_name(self.error),
            "weight_grad": _role_name(self.weight_grad),
        }


class QuantizationPolicy:
    """Maps model layers to per-layer quantization contexts.

    Parameters
    ----------
    conv_formats, bn_formats, linear_formats:
        Role formats for convolution, batch-norm, and fully-connected layers.
        ``linear_formats`` defaults to ``conv_formats`` (the paper does not
        single out the classifier head).
    rounding:
        Rounding mode for the posit transformation; the paper uses
        round-to-zero (``"zero"``) for hardware friendliness.
    use_scaling:
        Whether distribution-based shifting (Eq. (2)/(3)) is applied.
    sigma:
        The σ constant of Eq. (2).
    scale_mode:
        ``"dynamic"`` or ``"calibrated"`` (see :class:`~repro.core.scaling.ScaleEstimator`).
    first_layer_full_precision, last_layer_full_precision:
        Common quantized-training practice keeps the first conv and the final
        classifier in full precision; both default to False because the paper
        quantizes everything.  :meth:`layer_formats` applies them, for
        training, export and the hardware cost model alike.
    seed:
        Seed for stochastic rounding, if selected.
    """

    def __init__(
        self,
        conv_formats: RoleFormats,
        bn_formats: Optional[RoleFormats] = None,
        linear_formats: Optional[RoleFormats] = None,
        rounding: str = "zero",
        use_scaling: bool = True,
        sigma: int = 2,
        scale_mode: str = "dynamic",
        first_layer_full_precision: bool = False,
        last_layer_full_precision: bool = False,
        seed: Optional[int] = None,
    ):
        self.conv_formats = conv_formats
        self.bn_formats = bn_formats if bn_formats is not None else conv_formats
        self.linear_formats = linear_formats if linear_formats is not None else conv_formats
        self.rounding = rounding
        self.use_scaling = use_scaling
        self.sigma = sigma
        self.scale_mode = scale_mode
        self.first_layer_full_precision = first_layer_full_precision
        self.last_layer_full_precision = last_layer_full_precision
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Paper presets
    # ------------------------------------------------------------------ #
    @classmethod
    def cifar_paper(cls, **overrides) -> "QuantizationPolicy":
        """Table III footnote 1: 8-bit posit for CONV, 16-bit posit for BN."""
        return cls(
            conv_formats=RoleFormats.posit(PositConfig(8, 1), PositConfig(8, 2)),
            bn_formats=RoleFormats.posit(PositConfig(16, 1), PositConfig(16, 2)),
            linear_formats=RoleFormats.posit(PositConfig(8, 1), PositConfig(8, 2)),
            **overrides,
        )

    @classmethod
    def imagenet_paper(cls, **overrides) -> "QuantizationPolicy":
        """Table III footnote 2: posit(16,1) forward/update, posit(16,2) backward."""
        formats = RoleFormats.posit(PositConfig(16, 1), PositConfig(16, 2))
        return cls(conv_formats=formats, bn_formats=formats, linear_formats=formats, **overrides)

    @classmethod
    def uniform(cls, n: int, es_forward: int = 1, es_backward: int = 2,
                **overrides) -> "QuantizationPolicy":
        """The same ``(n, es)`` assignment for every layer type."""
        formats = RoleFormats.posit(PositConfig(n, es_forward), PositConfig(n, es_backward))
        return cls(conv_formats=formats, bn_formats=formats, linear_formats=formats, **overrides)

    @classmethod
    def float_baseline(cls, forward_format: FloatFormat, backward_format: FloatFormat,
                       **overrides) -> "QuantizationPolicy":
        """Reduced-precision float baseline (FP16/FP8 mixed precision)."""
        formats = RoleFormats(
            weight=forward_format,
            activation=forward_format,
            error=backward_format,
            weight_grad=backward_format,
        )
        return cls(conv_formats=formats, bn_formats=formats, linear_formats=formats, **overrides)

    @classmethod
    def full_precision(cls, **overrides) -> "QuantizationPolicy":
        """No quantization anywhere (FP32 baseline expressed as a policy)."""
        return cls(conv_formats=RoleFormats.full_precision(), **overrides)

    @classmethod
    def uniform_format(cls, fmt: Union[NumberFormat, str, None],
                       **overrides) -> "QuantizationPolicy":
        """One format (object or spec string) for every role and layer type.

        This is how a single-format sweep point — including fixed-point and
        float baselines — is expressed declaratively, e.g.
        ``QuantizationPolicy.uniform_format("fixed(16,13)", rounding="stochastic")``.
        """
        formats = RoleFormats.uniform(fmt)
        return cls(conv_formats=formats, bn_formats=formats,
                   linear_formats=formats, **overrides)

    # ------------------------------------------------------------------ #
    # Declarative (spec-string / dict) construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping) -> "QuantizationPolicy":
        """Build a policy from the plain-dict form produced by :meth:`to_dict`.

        ``data["conv"]`` (required), ``data["bn"]`` and ``data["linear"]``
        (optional, defaulting to the conv assignment) are role->spec
        mappings; every other key is passed to the constructor unchanged.
        The round trip ``QuantizationPolicy.from_dict(p.to_dict())`` yields a
        policy with identical quantization behaviour, which makes policies
        JSON/YAML-able experiment inputs.
        """
        options = dict(data)
        if "conv" not in options:
            raise ValueError("policy dict requires a 'conv' role-format mapping")
        conv = RoleFormats.from_dict(options.pop("conv"))
        bn = options.pop("bn", None)
        linear = options.pop("linear", None)
        return cls(
            conv_formats=conv,
            bn_formats=RoleFormats.from_dict(bn) if bn is not None else None,
            linear_formats=RoleFormats.from_dict(linear) if linear is not None else None,
            **options,
        )

    def to_dict(self) -> dict:
        """JSON-able form of the policy; inverse of :meth:`from_dict`."""
        return {**self.describe(), "seed": self.seed}

    # ------------------------------------------------------------------ #
    def formats_for(self, module: Module) -> Optional[RoleFormats]:
        """Return the role formats for ``module``, or None for unhandled types."""
        if isinstance(module, Conv2d):
            return self.conv_formats
        if isinstance(module, BatchNorm2d):
            return self.bn_formats
        if isinstance(module, Linear):
            return self.linear_formats
        return None

    def _make_scaler(self) -> Optional[ScaleEstimator]:
        if not self.use_scaling:
            return None
        return ScaleEstimator(sigma=self.sigma, mode=self.scale_mode)

    def build_context(self, name: str, module: Module,
                      formats: RoleFormats) -> LayerQuantContext:
        """Build a :class:`LayerQuantContext` for one layer."""
        # With no explicit seed the quantizers are pure functions of
        # (format, rounding) and come from the shared cache; a seeded policy
        # gets per-context instances so layers keep independent rng streams.
        rng = np.random.default_rng(self.seed) if self.seed is not None else None
        return LayerQuantContext(
            name=name,
            weight_quantizer=get_quantizer(formats.weight, self.rounding, rng),
            activation_quantizer=get_quantizer(formats.activation, self.rounding, rng),
            error_quantizer=get_quantizer(formats.error, self.rounding, rng),
            weight_grad_quantizer=get_quantizer(formats.weight_grad, self.rounding, rng),
            weight_scaler=self._make_scaler() if formats.weight is not None else None,
            activation_scaler=self._make_scaler() if formats.activation is not None else None,
            error_scaler=self._make_scaler() if formats.error is not None else None,
            weight_grad_scaler=self._make_scaler() if formats.weight_grad is not None else None,
        )

    def layer_formats(self, model: Module) -> Iterator[tuple[str, Module, RoleFormats]]:
        """Yield ``(name, module, formats)`` for every layer the policy covers.

        The one walk behind :meth:`attach`, :meth:`export_formats` and the
        hardware cost model: the first / last covered layer gets
        :meth:`RoleFormats.full_precision` when its flag is set.
        """
        covered = [(name, module) for name, module in model.named_modules()
                   if self.formats_for(module) is not None]
        for index, (name, module) in enumerate(covered):
            if ((self.first_layer_full_precision and index == 0)
                    or (self.last_layer_full_precision and index == len(covered) - 1)):
                yield name, module, RoleFormats.full_precision()
            else:
                yield name, module, self.formats_for(module)

    def attach(self, model: Module) -> dict[str, LayerQuantContext]:
        """Attach quantization contexts to every supported layer of ``model``.

        Returns the mapping from qualified layer name to context.  Layers the
        policy does not cover keep ``module.quant = None`` and therefore run
        in full precision.
        """
        contexts: dict[str, LayerQuantContext] = {}
        for name, module, formats in self.layer_formats(model):
            context = self.build_context(name, module, formats)
            module.quant = context
            contexts[name] = context
        return contexts

    def export_formats(self, model: Module) -> dict[str, TensorFormat]:
        """Per-parameter **storage** formats mirroring the forward weight roles.

        The serving-artifact counterpart of :meth:`attach`: for every
        parameter of every layer the policy covers, the layer's *weight*
        role format (the tensor that actually lives in the packed artifact)
        is assigned — so a ``cifar_paper`` policy (posit(8,1) CONV,
        posit(16,1) BN) exports a genuinely mixed-precision artifact, the
        Table III assignment carried through to deployment.  ``None``
        values mean full precision (the exporter stores those as
        ``"fp32"``); parameters of uncovered layers are absent from the
        map and fall back to the exporter's default format.  The first- /
        last-layer full-precision flags apply exactly as in :meth:`attach`.
        """
        result: dict[str, TensorFormat] = {}
        for name, module, formats in self.layer_formats(model):
            for param_name, _param in module.named_parameters():
                qualified = f"{name}.{param_name}" if name else param_name
                result[qualified] = formats.weight
        return result

    @staticmethod
    def detach(model: Module) -> None:
        """Remove all quantization contexts from ``model`` (back to FP32)."""
        for _, module in model.named_modules():
            module.quant = None

    @staticmethod
    def set_enabled(model: Module, enabled: bool) -> None:
        """Enable or disable all attached contexts without removing them."""
        for _, module in model.named_modules():
            if module.quant is not None:
                module.quant.enabled = enabled

    def describe(self) -> dict:
        """Summarize the policy's format assignments and options."""
        return {
            "conv": self.conv_formats.as_dict(),
            "bn": self.bn_formats.as_dict(),
            "linear": self.linear_formats.as_dict(),
            "rounding": self.rounding,
            "use_scaling": self.use_scaling,
            "sigma": self.sigma,
            "scale_mode": self.scale_mode,
            "first_layer_full_precision": self.first_layer_full_precision,
            "last_layer_full_precision": self.last_layer_full_precision,
        }

    def with_overrides(self, **changes) -> "QuantizationPolicy":
        """Return a copy of the policy with the given attributes replaced."""
        current = {
            "conv_formats": self.conv_formats,
            "bn_formats": self.bn_formats,
            "linear_formats": self.linear_formats,
            "rounding": self.rounding,
            "use_scaling": self.use_scaling,
            "sigma": self.sigma,
            "scale_mode": self.scale_mode,
            "first_layer_full_precision": self.first_layer_full_precision,
            "last_layer_full_precision": self.last_layer_full_precision,
            "seed": self.seed,
        }
        current.update(changes)
        return QuantizationPolicy(**current)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuantizationPolicy(conv={self.conv_formats.as_dict()}, bn={self.bn_formats.as_dict()})"
