"""Tests for the PositTrainer: Fig. 3 insertion points, warm-up, and training runs."""

import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core import PositTrainer, QuantizationPolicy, WarmupSchedule
from repro.data import ArrayDataLoader, make_blobs
from repro.models import MLP, tiny_resnet
from repro.nn import CrossEntropyLoss, LossScaler
from repro.optim import SGD, MultiStepLR
from repro.posit import PositConfig, quantize


def blob_loaders(batch_size=32, seed=0):
    points, labels = make_blobs(num_samples=256, num_classes=4, spread=0.5, seed=seed)
    mean, std = points.mean(axis=0), points.std(axis=0)
    points = (points - mean) / std
    # make_blobs emits samples grouped by class; shuffle before splitting so
    # the train and validation splits share the same class distribution.
    order = np.random.default_rng(seed).permutation(len(points))
    points, labels = points[order], labels[order]
    train = ArrayDataLoader(points[:192], labels[:192], batch_size=batch_size, seed=seed)
    val = ArrayDataLoader(points[192:], labels[192:], batch_size=64, shuffle=False)
    return train, val


def make_mlp_trainer(policy=None, warmup=0, lr=0.1, seed=0, **kwargs):
    model = MLP(2, hidden=(32, 16), num_classes=4, rng=np.random.default_rng(seed))
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    return PositTrainer(model, optimizer, CrossEntropyLoss(), policy=policy,
                        warmup=WarmupSchedule(warmup), **kwargs)


class TestTrainerWiring:
    def test_fp32_trainer_has_no_contexts(self):
        trainer = make_mlp_trainer(policy=None)
        assert trainer.contexts == {}
        assert not trainer.quantization_active

    def test_policy_attaches_contexts(self):
        trainer = make_mlp_trainer(policy=QuantizationPolicy.uniform(8))
        assert len(trainer.contexts) == 3  # three Linear layers in the MLP

    def test_optimizer_hooks_installed(self):
        trainer = make_mlp_trainer(policy=QuantizationPolicy.uniform(8))
        assert trainer.optimizer.grad_transform is not None
        assert trainer.optimizer.param_transform is not None

    def test_warmup_disables_quantization_at_start(self):
        trainer = make_mlp_trainer(policy=QuantizationPolicy.uniform(8), warmup=2)
        assert not trainer.quantization_active

    def test_no_warmup_enables_quantization_immediately(self):
        trainer = make_mlp_trainer(policy=QuantizationPolicy.uniform(8), warmup=0)
        assert trainer.quantization_active

    def test_describe(self):
        trainer = make_mlp_trainer(policy=QuantizationPolicy.uniform(8), warmup=1)
        description = trainer.describe()
        assert description["warmup"] == {"warmup_epochs": 1}
        assert len(description["quantized_layers"]) == 3


class TestFig3InsertionPoints:
    """After a quantized training step, every Fig. 3 tensor lies on the posit grid."""

    def test_weights_on_posit_grid_after_step(self):
        config = PositConfig(8, 1)
        policy = QuantizationPolicy.uniform(8, use_scaling=False)
        trainer = make_mlp_trainer(policy=policy, warmup=0, lr=0.05)
        train, _ = blob_loaders()
        trainer.train_epoch(train, epoch=0)
        for param in trainer.model.parameters():
            np.testing.assert_array_equal(
                param.data, np.asarray(quantize(param.data, config)),
                err_msg="stored weights must be posit values after the update (Fig. 3c)",
            )

    def test_weights_scaled_grid_with_shifting(self):
        """With Eq. (3) shifting, weights equal Sf times representable posits."""
        policy = QuantizationPolicy.uniform(8, use_scaling=True, scale_mode="dynamic")
        trainer = make_mlp_trainer(policy=policy, warmup=0, lr=0.05)
        train, _ = blob_loaders()
        trainer.train_epoch(train, epoch=0)
        config = PositConfig(8, 1)
        for name, module in trainer.model.named_modules():
            context = module.quant
            if context is None:
                continue
            weight = module._parameters["weight"].data
            scale = context.scalers["weight"].scale_for(weight)
            np.testing.assert_allclose(
                weight / scale, np.asarray(quantize(weight / scale, config)), atol=0)

    def test_gradients_quantized_before_update(self):
        """The ΔW hook produces posit-grid gradients (Fig. 3b)."""
        captured = []
        policy = QuantizationPolicy.uniform(8, use_scaling=False)
        trainer = make_mlp_trainer(policy=policy, warmup=0)
        original_transform = trainer.optimizer.grad_transform

        def spy(grad, param):
            result = original_transform(grad, param)
            captured.append(result)
            return result

        trainer.optimizer.grad_transform = spy
        train, _ = blob_loaders()
        trainer.train_epoch(train, epoch=0)
        assert captured
        config = PositConfig(8, 2)
        for grad in captured[:5]:
            np.testing.assert_array_equal(grad, np.asarray(quantize(grad, config)))

    def test_fp32_trainer_weights_not_on_grid(self):
        trainer = make_mlp_trainer(policy=None, lr=0.05)
        train, _ = blob_loaders()
        trainer.train_epoch(train, epoch=0)
        config = PositConfig(8, 1)
        on_grid = all(
            np.array_equal(p.data, np.asarray(quantize(p.data, config)))
            for p in trainer.model.parameters()
        )
        assert not on_grid


class TestWarmupBehaviour:
    def test_epoch_records_mark_quantized_phase(self):
        policy = QuantizationPolicy.uniform(8)
        trainer = make_mlp_trainer(policy=policy, warmup=2, lr=0.05)
        train, val = blob_loaders()
        history = trainer.fit(train, val, epochs=4)
        assert [r.quantized for r in history] == [False, False, True, True]

    def test_calibration_runs_at_transition(self):
        policy = QuantizationPolicy.uniform(8, scale_mode="calibrated")
        trainer = make_mlp_trainer(policy=policy, warmup=1, lr=0.05)
        train, _ = blob_loaders()
        trainer.fit(train, epochs=2)
        centers = [c.scalers["weight"].calibrated_center for c in trainer.contexts.values()]
        assert all(center is not None for center in centers)

    def test_manual_calibration_returns_scales(self):
        policy = QuantizationPolicy.uniform(8, scale_mode="calibrated")
        trainer = make_mlp_trainer(policy=policy, warmup=0)
        scales = trainer.calibrate_scale_factors()
        assert len(scales) == 3
        assert all(s > 0 for s in scales.values())


class TestTrainingRuns:
    def test_fp32_learns_blobs(self):
        trainer = make_mlp_trainer(policy=None, lr=0.1)
        train, val = blob_loaders()
        history = trainer.fit(train, val, epochs=15)
        assert history.final_val_accuracy > 0.9

    def test_posit16_matches_fp32_on_blobs(self):
        """The core Table III claim at toy scale: 16-bit posit ~= FP32."""
        train, val = blob_loaders()
        fp32 = make_mlp_trainer(policy=None, lr=0.1, seed=1)
        fp32_history = fp32.fit(train, val, epochs=15)

        train, val = blob_loaders()
        posit = make_mlp_trainer(policy=QuantizationPolicy.imagenet_paper(), warmup=1,
                                 lr=0.1, seed=1)
        posit_history = posit.fit(train, val, epochs=15)
        assert posit_history.final_val_accuracy >= fp32_history.final_val_accuracy - 0.05

    def test_scheduler_steps_per_epoch(self):
        model = MLP(2, hidden=(8,), num_classes=4, rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        scheduler = MultiStepLR(optimizer, milestones=(2,), gamma=0.1)
        trainer = PositTrainer(model, optimizer, CrossEntropyLoss(), scheduler=scheduler)
        train, _ = blob_loaders()
        history = trainer.fit(train, epochs=4)
        assert history[0].learning_rate == pytest.approx(0.1)
        assert history[3].learning_rate == pytest.approx(0.01)

    def test_epoch_callbacks_invoked(self):
        seen = []
        trainer = make_mlp_trainer(policy=None)
        trainer.epoch_callbacks.append(lambda tr, epoch, record: seen.append(epoch))
        train, _ = blob_loaders()
        trainer.fit(train, epochs=3)
        assert seen == [0, 1, 2]

    def test_evaluate_does_not_touch_weights(self):
        trainer = make_mlp_trainer(policy=None)
        train, val = blob_loaders()
        before = [p.data.copy() for p in trainer.model.parameters()]
        trainer.evaluate(val)
        for original, param in zip(before, trainer.model.parameters()):
            np.testing.assert_array_equal(original, param.data)

    def test_loss_scaler_path_trains(self):
        from repro.baselines import fp16_policy

        trainer = make_mlp_trainer(policy=fp16_policy(), warmup=0, lr=0.1,
                                   loss_scaler=LossScaler(scale=128.0))
        train, val = blob_loaders()
        history = trainer.fit(train, val, epochs=10)
        assert history.final_val_accuracy > 0.8

    def test_resnet_single_quantized_step_runs(self, rng):
        """End-to-end smoke test with conv/BN layers under the Cifar policy."""
        model = tiny_resnet(base_width=4, rng=rng)
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
        trainer = PositTrainer(model, optimizer, CrossEntropyLoss(),
                               policy=QuantizationPolicy.cifar_paper(),
                               warmup=WarmupSchedule(0))
        images = rng.standard_normal((8, 3, 16, 16))
        labels = rng.integers(0, 10, 8)
        loader = ArrayDataLoader(images, labels, batch_size=8, shuffle=False)
        loss, accuracy = trainer.train_epoch(loader, epoch=0)
        assert np.isfinite(loss)
        assert 0.0 <= accuracy <= 1.0


def graph_bytes(root) -> int:
    """Bytes of the arrays reachable from ``root``: each node's data and each
    array in its backward closure (or in a function that closure holds),
    every base buffer counted once."""
    buffers, nodes, functions, stack = {}, set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes.add(id(node))
        stack.extend(node._parents)
        arrays = [node.data]
        pending = [node._backward] if node._backward is not None else []
        while pending:
            function = pending.pop()
            if id(function) in functions:
                continue
            functions.add(id(function))
            for cell in function.__closure__ or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    arrays.append(value)
                elif inspect.isfunction(value):
                    pending.append(value)
        for array in arrays:
            while isinstance(array.base, np.ndarray):
                array = array.base
            buffers[id(array)] = array.nbytes
    return sum(buffers.values())


class TestTrainingMemory:
    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "loss_scaler"])
    def test_train_epoch_frees_each_graph_before_the_next_forward(self, scaled):
        """No earlier batch's loss, and so no earlier graph, is alive when the
        next forward starts."""
        scaler = LossScaler(scale=128.0) if scaled else None
        trainer = make_mlp_trainer(policy=None, loss_scaler=scaler)
        loss_arrays, alive_at_forward = [], []
        forward, loss_fn = trainer.model.forward, trainer.loss_fn

        def spy_forward(x):
            alive_at_forward.append(sum(ref() is not None for ref in loss_arrays))
            return forward(x)

        def spy_loss(logits, labels):
            loss = loss_fn(logits, labels)
            loss_arrays.append(weakref.ref(loss.data))  # Tensor has no __weakref__
            return loss

        trainer.model.forward, trainer.loss_fn = spy_forward, spy_loss
        train, _ = blob_loaders()
        trainer.train_epoch(train)
        assert alive_at_forward == [0] * len(train)

    def test_cifar_paper_forward_graph_fits_its_budget(self):
        """After a cifar_resnet batch-16 forward under cifar_paper, the graph
        holds under 40 MiB: conv and BN nodes keep their inputs, not their
        im2col columns or normalization intermediates (86.1 MiB when they did)."""
        from repro.api import ExperimentConfig, build_experiment
        from repro.tensor import Tensor

        experiment = build_experiment(ExperimentConfig(
            dataset="cifar_like", model="cifar_resnet", policy="cifar_paper",
            warmup_epochs=0, batch_size=16, train_size=16, test_size=16, seed=0))
        experiment.model.train(True)
        inputs, labels = next(iter(experiment.train_loader))
        loss = experiment.trainer.loss_fn(experiment.model(Tensor(inputs)), labels)
        assert experiment.trainer.quantization_active
        assert graph_bytes(loss) < 40 * 2**20

    @staticmethod
    def _cifar_paper_loss():
        """The loss of the budget test's step: cifar_resnet at batch 16 under
        cifar_paper, quantized from the first step, every codec table built
        when the policy attaches."""
        from repro.api import ExperimentConfig, build_experiment
        from repro.formats import clear_quantizer_cache
        from repro.formats.kernels import clear_kernel_cache
        from repro.tensor import Tensor

        clear_kernel_cache()
        clear_quantizer_cache()
        experiment = build_experiment(ExperimentConfig(
            dataset="cifar_like", model="cifar_resnet", policy="cifar_paper",
            warmup_epochs=0, batch_size=16, train_size=16, test_size=16, seed=0))
        experiment.model.train(True)
        inputs, labels = next(iter(experiment.train_loader))
        assert experiment.trainer.quantization_active
        return experiment.trainer.loss_fn(experiment.model(Tensor(inputs)), labels)

    def test_cifar_paper_step_releases_as_it_goes(self):
        """Each quantized activation takes its producer's place in the graph,
        which then holds 17.45 MiB (27.95 at the parent), and backward frees
        each node once it has run, so it peaks 2.6 MiB above its start (23.9
        at the parent, where the graph lived until backward returned)."""
        tracemalloc.start()  # before the forward: the graph backward frees is traced
        try:
            loss = self._cifar_paper_loss()
            assert graph_bytes(loss) < 20 * 2**20
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * 2**20, (peak - start) / 2**20

    def test_backward_frees_every_node_it_has_visited(self):
        """Reference counting alone frees every non-leaf buffer of the step's
        graph by the time backward returns (69 of them), but the root's and
        its parents', which the root's closure holds; at the parent all 88
        stayed alive until the loss was dropped."""
        def base(array):
            while isinstance(array.base, np.ndarray):
                array = array.base
            return array

        gc.disable()
        try:
            loss = self._cifar_paper_loss()
            nodes, stack = {}, [loss]
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes[id(node)] = node
                    stack.extend(node._parents)
            kept = {id(base(node.data)) for node in (loss, *loss._parents)}
            kept |= {id(base(node.data)) for node in nodes.values() if not node._parents}
            probes = {id(base(node.data)): weakref.ref(base(node.data))
                      for node in nodes.values() if id(base(node.data)) not in kept}
            del nodes, node
            loss.backward()
            alive = sum(probe() is not None for probe in probes.values())
        finally:
            gc.enable()
        assert len(probes) > 50 and alive == 0, (alive, len(probes))
