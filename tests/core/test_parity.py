"""Table II: every supported neural operator's SQL implementation must
match the tensor framework bit-for-bit (within float tolerance).

Each test compiles a tiny model containing the operator under test, runs
SQL inference, and compares against the numpy forward pass: one keyframe
through the per-sample program, and a batch of three through the batched
program.
"""

import numpy as np
import pytest

from repro.core import (
    Dl2SqlModel,
    PreJoin,
    compile_model,
    compile_model_batched,
)
from repro.engine import Database
from repro.tensor import (
    AvgPool2d,
    BasicAttention,
    BatchNorm2d,
    Conv2d,
    Deconv2d,
    DenseBlock,
    Flatten,
    IdentityBlock,
    InstanceNorm2d,
    Linear,
    MaxPool2d,
    Model,
    ReLU,
    ResidualBlock,
    Softmax,
    build_resnet,
    build_student_cnn,
)


def sql_forward(model, x, prejoin=PreJoin.NONE):
    compiled = compile_model(model, prejoin=prejoin)
    db = Database()
    runner = Dl2SqlModel(compiled)
    runner.load(db)
    runner.infer(db, x)
    return runner.read_output(db)


def sql_forward_batch(model, frames, prejoin=PreJoin.NONE):
    db = Database()
    runner = Dl2SqlModel(compile_model_batched(model, prejoin=prejoin))
    runner.load(db)
    return runner.infer_batch(db, frames).probabilities


def check(model, seed=0, prejoin=PreJoin.NONE, atol=1e-9):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=model.input_shape)
    expected = model.forward(x)
    got = sql_forward(model, x, prejoin)
    assert got.shape == tuple(expected.shape)
    assert np.allclose(got, expected, atol=atol), (
        f"max err {np.abs(got - expected).max()}"
    )

    frames = [rng.normal(size=model.input_shape) for _ in range(3)]
    expected = model.forward_batch(frames)
    got = sql_forward_batch(model, frames, prejoin)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, atol=1e-8), (
        f"batched: max err {np.abs(got - expected).max()}"
    )


RNG = np.random.default_rng(42)


def deconv_model():
    return Model("deconv", (2, 4, 4), [Deconv2d(2, 3, 2, stride=2, rng=RNG)])


def attention_model():
    return Model("attn", (1, 4, 4), [Flatten(), BasicAttention(16, 6, rng=RNG)])


def dense_model():
    stages = [
        [Conv2d(2, 2, 3, padding=1, rng=RNG), ReLU()],
        [Conv2d(4, 2, 3, padding=1, rng=RNG), ReLU()],
    ]
    return Model("dense", (2, 4, 4), [DenseBlock(stages)])


class TestSingleOperators:
    def test_conv(self):
        check(Model("conv", (1, 6, 6), [Conv2d(1, 3, 3, rng=RNG)]))

    def test_conv_stride_padding(self):
        check(
            Model(
                "convsp",
                (2, 7, 7),
                [Conv2d(2, 3, 3, stride=2, padding=1, rng=RNG)],
            )
        )

    def test_conv_with_bias(self):
        layer = Conv2d(1, 2, 3, rng=RNG)
        layer.bias = np.array([0.5, -0.5])
        check(Model("convb", (1, 5, 5), [layer]))

    def test_conv_1x1_is_pointwise(self):
        check(Model("conv1", (3, 4, 4), [Conv2d(3, 2, 1, rng=RNG)]))

    def test_deconv(self):
        check(deconv_model())

    def test_max_pooling(self):
        check(Model("maxpool", (2, 6, 6), [MaxPool2d(2)]))

    def test_avg_pooling(self):
        check(Model("avgpool", (2, 6, 6), [AvgPool2d(2)]))

    def test_overlapping_pooling(self):
        check(Model("ovpool", (1, 5, 5), [MaxPool2d(3, stride=1)]))

    def test_relu(self):
        check(Model("relu", (2, 4, 4), [ReLU()]))

    def test_batch_norm_input_stats(self):
        check(Model("bn", (3, 5, 5), [BatchNorm2d(3)]))

    def test_batch_norm_running_stats(self):
        bn = BatchNorm2d(2)
        bn.running_mean = np.array([0.5, -0.5])
        bn.running_var = np.array([2.0, 0.5])
        check(Model("bnrun", (2, 4, 4), [bn]))

    def test_batch_norm_gamma_beta(self):
        bn = BatchNorm2d(2)
        bn.gamma = np.array([2.0, 0.5])
        bn.beta = np.array([1.0, -1.0])
        check(Model("bngb", (2, 4, 4), [bn]))

    def test_instance_norm(self):
        check(Model("inorm", (2, 5, 5), [InstanceNorm2d(2)]))

    def test_full_connection(self):
        check(Model("fc", (1, 4, 4), [Flatten(), Linear(16, 5, rng=RNG)]))

    def test_fc_with_bias(self):
        layer = Linear(9, 3, rng=RNG)
        layer.bias = np.array([1.0, -1.0, 0.5])
        check(Model("fcb", (1, 3, 3), [Flatten(), layer]))

    def test_softmax(self):
        check(Model("soft", (1, 2, 2), [Flatten(), Softmax()]))

    def test_basic_attention(self):
        check(attention_model())


class TestBlocks:
    def test_identity_block(self):
        main = [
            Conv2d(2, 2, 3, padding=1, rng=RNG),
            BatchNorm2d(2),
            ReLU(),
            Conv2d(2, 2, 3, padding=1, rng=RNG),
            BatchNorm2d(2),
        ]
        check(Model("ident", (2, 5, 5), [IdentityBlock(main)]))

    def test_residual_block_with_shortcut(self):
        main = [
            Conv2d(2, 4, 3, padding=1, rng=RNG),
            BatchNorm2d(4),
            ReLU(),
            Conv2d(4, 4, 3, padding=1, rng=RNG),
            BatchNorm2d(4),
        ]
        shortcut = [Conv2d(2, 4, 1, rng=RNG), BatchNorm2d(4)]
        check(Model("resid", (2, 5, 5), [ResidualBlock(main, shortcut)]))

    def test_dense_block(self):
        check(dense_model())

    def test_relu_on_model_input_is_copy_safe(self):
        """A leading ReLU must not mutate the input table in place."""
        model = Model("leadrelu", (1, 3, 3), [ReLU(), ReLU()])
        compiled = compile_model(model)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        x = np.random.default_rng(0).normal(size=(1, 3, 3))
        runner.infer(db, x)
        # The registered input table still holds the original values.
        input_values = db.table(compiled.input_table).column("Value").data
        assert input_values.min() < 0


class TestWholeModels:
    def test_student_cnn_all_prejoins(self):
        model = build_student_cnn(
            input_shape=(1, 8, 8), num_classes=3, channels=(4, 4, 4), seed=5
        )
        for prejoin in PreJoin:
            check(model, seed=1, prejoin=prejoin, atol=1e-8)

    def test_resnet(self):
        model = build_resnet(5, input_shape=(1, 8, 8), num_classes=3, seed=6)
        check(model, seed=2, atol=1e-8)

    def test_multi_channel_input(self):
        model = build_student_cnn(
            input_shape=(3, 8, 8), num_classes=4, channels=(4, 6, 6), seed=7
        )
        check(model, seed=3, atol=1e-8)

    def test_predicted_labels_agree(self):
        model = build_student_cnn(
            input_shape=(1, 8, 8),
            num_classes=3,
            channels=(4, 4, 4),
            class_labels=["a", "b", "c"],
            seed=8,
        )
        compiled = compile_model(model)
        db = Database()
        runner = Dl2SqlModel(compiled)
        runner.load(db)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.normal(size=(1, 8, 8))
            assert runner.infer(db, x).label == model.predict_label(x)
