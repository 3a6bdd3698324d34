"""The posit training loop (the paper's training methodology, assembled).

:class:`PositTrainer` wires together the pieces of §III:

1. a model whose layers carry :class:`~repro.core.transform.LayerQuantContext`
   objects attached by a :class:`~repro.core.policy.QuantizationPolicy`
   (posit transformation inserted at the Fig. 3 points),
2. the FP32 warm-up schedule of §III-B (quantization disabled for the first
   1-5 epochs, then switched on; scale factors optionally calibrated at the
   transition),
3. an SGD-with-momentum optimizer whose ``grad_transform``/``param_transform``
   hooks quantize the weight gradients (ΔW) and the updated weights (Fig. 3b/3c),
4. per-epoch evaluation and history recording.

The same class also runs the FP32 baseline — simply construct it without a
policy — so baseline and posit runs share every line of training logic, which
is what makes the Table III comparison meaningful.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..data.loaders import ArrayDataLoader
from ..nn import CrossEntropyLoss, Module
from ..optim import LRScheduler, Optimizer
from ..tensor import Tensor, accuracy, no_grad
from .metrics import AverageMeter, EpochRecord, TrainingHistory
from .policy import QuantizationPolicy
from .transform import LayerQuantContext
from .warmup import WarmupSchedule

__all__ = ["PositTrainer"]

EpochCallback = Callable[["PositTrainer", int, EpochRecord], None]


class PositTrainer:
    """Training loop with optional posit (or low-bit float) quantization.

    Parameters
    ----------
    model:
        The network to train.
    optimizer:
        An optimizer over ``model.parameters()`` (the paper uses SGD with
        momentum 0.9).
    loss_fn:
        Loss module; defaults to cross-entropy.
    policy:
        Quantization policy.  ``None`` trains the FP32 baseline.  Besides a
        :class:`~repro.core.policy.QuantizationPolicy` instance, a preset
        name (``"cifar_paper"``), a format spec (``"posit(8,1)"``), or a
        policy dict (the :meth:`~repro.core.policy.QuantizationPolicy.to_dict`
        form) is accepted and resolved through :func:`repro.api.build_policy`.
    warmup:
        FP32 warm-up schedule.  Ignored when ``policy`` is None.
    scheduler:
        Optional learning-rate scheduler stepped once per epoch.
    epoch_callbacks:
        Callables invoked after every epoch with
        ``(trainer, epoch, record)`` — used by the distribution analysis
        (Fig. 2) and by tests.
    loss_scaler:
        Optional :class:`~repro.nn.loss.LossScaler` used by the FP16/FP8
        mixed-precision baselines ([9], [10]).  The loss is scaled before
        backward and gradients are unscaled before the optimizer step; steps
        with non-finite gradients are skipped.  Posit runs do not need one.
    verbose:
        Whether to print a one-line summary per epoch.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Optional[Module] = None,
        policy: Optional[QuantizationPolicy] = None,
        warmup: Optional[WarmupSchedule] = None,
        scheduler: Optional[LRScheduler] = None,
        epoch_callbacks: Optional[list[EpochCallback]] = None,
        loss_scaler=None,
        verbose: bool = False,
    ):
        if isinstance(policy, (str, dict)):
            # Deferred import: repro.api composes this trainer, so the
            # spec-resolution helper cannot be imported at module load time.
            from ..api import build_policy

            policy = build_policy(policy)
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
        self.policy = policy
        self.warmup = warmup if warmup is not None else WarmupSchedule(0)
        self.scheduler = scheduler
        self.epoch_callbacks = list(epoch_callbacks or [])
        self.loss_scaler = loss_scaler
        self.verbose = verbose
        self.history = TrainingHistory()

        self.contexts: dict[str, LayerQuantContext] = {}
        self._param_contexts: dict[int, LayerQuantContext] = {}
        if policy is not None:
            self.contexts = policy.attach(model)
            self._param_contexts = self._map_parameters_to_contexts()
            self._install_optimizer_hooks()
            # Quantization stays off until the warm-up phase completes.
            QuantizationPolicy.set_enabled(model, self.warmup.quantization_enabled(0))

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def _map_parameters_to_contexts(self) -> dict[int, LayerQuantContext]:
        """Associate every parameter with the context of its owning layer."""
        mapping: dict[int, LayerQuantContext] = {}
        for _, module in self.model.named_modules():
            context = module.quant
            if context is None:
                continue
            for param in module._parameters.values():
                if param is not None:
                    mapping[id(param)] = context
        return mapping

    def _install_optimizer_hooks(self) -> None:
        """Install ΔW and post-update weight quantization into the optimizer."""

        def grad_transform(grad: np.ndarray, param) -> np.ndarray:
            context = self._param_contexts.get(id(param))
            if context is None:
                return grad
            return context.weight_grad(grad, param)

        def param_transform(data: np.ndarray, param) -> np.ndarray:
            context = self._param_contexts.get(id(param))
            if context is None:
                return data
            return context.param(data, param)

        self.optimizer.grad_transform = grad_transform
        self.optimizer.param_transform = param_transform

    @property
    def quantization_active(self) -> bool:
        """Whether any attached quantization context is currently enabled."""
        return any(context.enabled for context in self.contexts.values())

    def calibrate_scale_factors(self) -> dict[str, float]:
        """Freeze calibrated weight scale factors from the current weights.

        Implements the paper's "based on the warm-up trained model, the
        scaling factor of each layer can be calculated": every layer whose
        weight scaler runs in calibrated mode gets its center frozen from the
        current (warm-up trained) weight tensor.  Returns the resulting scale
        per layer for reporting.
        """
        scales: dict[str, float] = {}
        for name, module in self.model.named_modules():
            context = module.quant
            if context is None:
                continue
            scaler = context.scalers.get("weight")
            weight = module._parameters.get("weight")
            if scaler is not None and scaler.mode == "calibrated" and weight is not None:
                scales[name] = scaler.calibrate(weight.data)
        return scales

    # ------------------------------------------------------------------ #
    # Epoch-level operations
    # ------------------------------------------------------------------ #
    def train_epoch(self, loader: ArrayDataLoader, epoch: int = 0) -> tuple[float, float]:
        """Run one training epoch; returns ``(mean_loss, mean_accuracy)``."""
        self.model.train(True)
        loss_meter = AverageMeter("loss")
        acc_meter = AverageMeter("accuracy")
        for inputs, labels in loader:
            logits = self.model(Tensor(inputs))
            loss = self.loss_fn(logits, labels)
            self.model.zero_grad()
            if self.loss_scaler is not None:
                self.loss_scaler.scale_loss(loss).backward()
                if self.loss_scaler.unscale_gradients(self.model.parameters()):
                    self.optimizer.step()
            else:
                loss.backward()
                self.optimizer.step()
            batch = len(labels)
            loss_meter.update(loss.item(), batch)
            acc_meter.update(accuracy(logits, labels), batch)
            # Free this batch's graph before the next forward builds its own.
            del logits, loss
        return loss_meter.average, acc_meter.average

    def evaluate(self, loader: ArrayDataLoader) -> tuple[float, float]:
        """Evaluate on a loader; returns ``(mean_loss, mean_accuracy)``."""
        self.model.train(False)
        loss_meter = AverageMeter("val_loss")
        acc_meter = AverageMeter("val_accuracy")
        with no_grad():
            for inputs, labels in loader:
                logits = self.model(Tensor(inputs))
                loss = self.loss_fn(logits, labels)
                batch = len(labels)
                loss_meter.update(loss.item(), batch)
                acc_meter.update(accuracy(logits, labels), batch)
        return loss_meter.average, acc_meter.average

    # ------------------------------------------------------------------ #
    # Full training run
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train_loader: ArrayDataLoader,
        val_loader: Optional[ArrayDataLoader] = None,
        epochs: int = 10,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs, following the warm-up schedule.

        Returns the accumulated :class:`TrainingHistory`.
        """
        for epoch in range(epochs):
            if self.policy is not None:
                enabled = self.warmup.quantization_enabled(epoch)
                QuantizationPolicy.set_enabled(self.model, enabled)
                if self.warmup.is_transition(epoch):
                    self.calibrate_scale_factors()
            if self.scheduler is not None:
                self.scheduler.step(epoch)

            train_loss, train_acc = self.train_epoch(train_loader, epoch)
            val_loss, val_acc = (None, None)
            if val_loader is not None:
                val_loss, val_acc = self.evaluate(val_loader)

            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                train_accuracy=train_acc,
                val_loss=val_loss,
                val_accuracy=val_acc,
                learning_rate=self.optimizer.lr,
                quantized=self.policy is not None and self.quantization_active,
            )
            self.history.append(record)
            for callback in self.epoch_callbacks:
                callback(self, epoch, record)
            if self.verbose:
                val_part = (
                    f" val_loss={val_loss:.4f} val_acc={val_acc:.4f}"
                    if val_loss is not None
                    else ""
                )
                print(
                    f"epoch {epoch:3d} loss={train_loss:.4f} acc={train_acc:.4f}"
                    f"{val_part} lr={self.optimizer.lr:.4g} "
                    f"quantized={record.quantized}"
                )
        return self.history

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Summary of the trainer configuration (used in benchmark reports)."""
        return {
            "model_parameters": self.model.num_parameters(),
            "policy": self.policy.describe() if self.policy is not None else None,
            "warmup": self.warmup.describe(),
            "quantized_layers": sorted(self.contexts),
        }
