"""Harness checks: trials, divergence handling, replication statistics,
grid selection, landscape geometry, Fisher probe."""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from telulab.autograd import (
    Activation,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2,
    Model,
    backward,
    build_model,
    forward,
    softmax_cross_entropy,
)
from telulab.data import DataMeta, Dataset, SplitSpec, batch_iter, synthetic_blobs
from telulab.errors import ConfigError, DivergenceError
import telulab.autograd as autograd
import telulab.harness as harness
from telulab.harness import (
    GRID_AXES,
    MAX_LANDSCAPE_CELLS,
    BlobsSpec,
    DatasetSpec,
    GridSpec,
    TrainConfig,
    _evaluate,
    check_landscape_args,
    draw_directions,
    empirical_fisher_diag,
    format_cell,
    grid_point,
    grid_search,
    landscape_slice,
    materialize_datasets,
    replicate,
    run_trial,
    train_model,
)
from telulab.kernels import RELU, TELU, ActivationKind
from telulab.optim import LrSchedule, OptimizerConfig, lr_at_epoch


def strip_timing(result):
    """Drop the one telemetry field; everything else must be deterministic."""
    from dataclasses import replace

    return replace(result, wall_time=0.0)


def blob_config(
    kind: ActivationKind = TELU,
    opt: str = "sgd",
    lr: float = 0.1,
    epochs: int = 10,
    seed: int = 0,
    n: int = 1000,
) -> TrainConfig:
    train_n = int(n * 0.8)
    return TrainConfig(
        layers=(Dense(16, 24), Activation(kind), Dense(24, 4)),
        optimizer=OptimizerConfig(opt, lr=lr, weight_decay=0.0003),
        schedule=LrSchedule(gamma=0.2, milestones=(6, 8)),
        epochs=epochs,
        batch=64,
        dataset=DatasetSpec(
            name="blobs",
            split=SplitSpec(train=train_n, valid=n - train_n, seed=0, test=200),
            blobs=BlobsSpec(n=n, classes=4, dim=16, spread=0.08, seed=0),
        ),
        seed=seed,
    )


class TestRunTrial:
    def test_learnable_blobs_reach_high_accuracy(self):
        result = run_trial(blob_config())
        assert not result.diverged
        assert result.epochs[-1].train_acc > 90.0
        assert result.test_acc > 90.0
        assert len(result.epochs) == 10

    def test_forced_divergence_is_data(self):
        result = run_trial(blob_config(lr=1e10, epochs=5))
        assert result.diverged
        assert result.divergence_epoch is not None
        assert result.divergence_epoch < 2
        assert len(result.epochs) == result.divergence_epoch

    def test_overflowing_loss_ends_the_trial(self, monkeypatch):
        # two classes with means (±0.71, ∓0.71): first-layer weights ±1.5e308
        # give finite logits whose spread exceeds the float range, with the
        # true class far behind, so the loss is +inf while its gradient is finite
        def huge_model(layers, seed):
            model = build_model(layers, seed)
            model.flat[:] = [-1.5e308, 1.5e308, 0.0, 0.0, 0.0, 0.0]
            return model

        monkeypatch.setattr(harness, "build_model", huge_model)
        cfg = TrainConfig(
            layers=(Dense(2, 2),),
            optimizer=OptimizerConfig("sgd", lr=0.1),
            schedule=LrSchedule(gamma=1.0),
            epochs=2,
            batch=8,
            dataset=DatasetSpec(
                name="blobs",
                split=SplitSpec(train=16, valid=8, seed=0, test=8),
                blobs=BlobsSpec(n=24, classes=2, dim=2, spread=0.01, seed=0),
            ),
        )
        _, result = train_model(cfg)
        assert result.diverged and result.divergence_epoch == 0
        assert result.epochs == ()

    def test_bitwise_determinism(self):
        a = run_trial(blob_config(opt="momentum"))
        b = run_trial(blob_config(opt="momentum"))
        assert strip_timing(a) == strip_timing(b)

    def test_seed_changes_results(self):
        a = run_trial(blob_config(seed=0, epochs=2))
        b = run_trial(blob_config(seed=1, epochs=2))
        assert [e.train_loss for e in a.epochs] != [e.train_loss for e in b.epochs]

    def test_stack_without_one_logit_per_class_rejected_before_training(self, monkeypatch):
        # no dense layer: the 16 features would be read as 16 logits
        from dataclasses import replace

        def no_training(*args, **kwargs):
            pytest.fail("trained before the config error")

        monkeypatch.setattr(harness, "step", no_training)
        cfg = replace(blob_config(n=100), layers=(Flatten(), Activation(TELU)))
        with pytest.raises(ConfigError, match=r"shape \(16,\), but the blobs dataset has 4 classes"):
            harness.fit(cfg, materialize_datasets(cfg.dataset))

    def test_accuracies_are_percentages(self):
        result = run_trial(blob_config(epochs=3))
        for e in result.epochs:
            assert 0.0 <= e.train_acc <= 100.0 and 0.0 <= e.valid_acc <= 100.0
        assert 0.0 <= result.test_acc <= 100.0


class TestConcMetric:
    def test_final_epoch_value(self):
        result = run_trial(blob_config(epochs=4))
        assert result.conc == result.epochs[-1].valid_acc

    def test_diverged_uses_last_recorded(self):
        result = run_trial(blob_config(lr=1e10, epochs=5))
        if result.epochs:
            assert result.conc == result.epochs[-1].valid_acc
        else:
            assert result.conc == 0.0

    def test_conc_bounded_by_best_valid(self):
        result = run_trial(blob_config(epochs=6))
        assert result.conc <= result.best_valid_acc


class TestReplicate:
    def test_single_seed_zero_std(self):
        summary, trials = replicate(blob_config(epochs=2), [0])
        assert summary.n_trials == 1
        assert summary.std_test_acc == 0.0

    def test_summary_matches_hand_recomputation(self):
        summary, trials = replicate(blob_config(opt="adamw", lr=0.01, epochs=3),
                                    [0, 1, 2, 3, 4])
        accs = [t.test_acc for t in trials]
        mean = sum(accs) / 5
        std = math.sqrt(sum((a - mean) ** 2 for a in accs) / 4)
        assert summary.mean_test_acc == pytest.approx(mean, abs=1e-12)
        assert summary.std_test_acc == pytest.approx(std, abs=1e-12)
        assert summary.mean_conc == pytest.approx(
            sum(t.conc for t in trials) / 5, abs=1e-12
        )

    def test_divergent_trials_enter_statistics(self):
        summary, trials = replicate(blob_config(lr=1e10, epochs=3), [0, 1, 2])
        assert summary.divergence_count == 3
        assert all(t.diverged for t in trials)
        assert summary.mean_test_acc <= 50.0

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError):
            replicate(blob_config(), [0, 0])

    @pytest.mark.parametrize(
        "seeds,jobs,workers", [([0, 1], 8, 2), ([0, 1, 2, 3], 2, 2)]
    )
    def test_pool_no_wider_than_the_trials(self, monkeypatch, seeds, jobs, workers):
        # a pool that maps in-process and records its width and worker set-up:
        # no process starts
        widths = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                widths.append((max_workers, initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        futures = harness.concurrent.futures
        monkeypatch.setattr(futures, "ProcessPoolExecutor", InProcessPool)
        summary, trials = replicate(blob_config(epochs=1), seeds, jobs=jobs)
        # each worker runs its chunk threads on its share of the CPUs
        threads = max(1, len(os.sched_getaffinity(0)) // workers)
        assert widths == [(workers, autograd.set_workers, (threads,))]
        assert [t.config.seed for t in trials] == seeds

    def test_deterministic_across_calls(self):
        sum_a, trials_a = replicate(blob_config(epochs=2), [0, 1])
        sum_b, trials_b = replicate(blob_config(epochs=2), [0, 1])
        assert sum_a == sum_b
        assert [strip_timing(t) for t in trials_a] == [
            strip_timing(t) for t in trials_b
        ]


class TestGridSearch:
    def test_single_config_returned(self):
        base = blob_config(epochs=2)
        grid = GridSpec(base=base, lr=(0.1,), weight_decay=(0.0003,), gamma=(0.2,))
        best, cells = grid_search(grid, [0])
        assert len(cells) == 1
        assert best.optimizer.lr == 0.1

    def test_divergent_lr_loses(self):
        base = blob_config(epochs=4)
        grid = GridSpec(base=base, lr=(0.1, 1e6), weight_decay=(0.0003,), gamma=(0.2,))
        best, cells = grid_search(grid, [0])
        assert best.optimizer.lr == 0.1
        assert len(cells) == 2

    def test_tie_break_prefers_lower_triple(self):
        # milestones beyond the horizon: gamma never applies, so both gamma
        # values produce identical trials and the tie-break must decide
        base = blob_config(epochs=2)
        grid = GridSpec(base=base, lr=(0.1,), weight_decay=(0.0003,), gamma=(0.5, 0.2))
        best, cells = grid_search(grid, [0])
        means = {c.config.schedule.gamma: c.mean_best_valid for c in cells}
        assert means[0.5] == means[0.2]
        assert best.schedule.gamma == 0.2

    def test_all_trials_share_one_run(self, monkeypatch):
        # one _run_trials call (so one pool with --jobs) for every cell x seed
        calls = []
        run_trials = harness._run_trials

        def counted(configs, jobs):
            calls.append([(c.optimizer.lr, c.seed) for c in configs])
            return run_trials(configs, jobs)

        monkeypatch.setattr(harness, "_run_trials", counted)
        base = blob_config(epochs=1)
        grid = GridSpec(base=base, lr=(0.1, 0.03), weight_decay=(0.0003,), gamma=(0.2,))
        _, cells = grid_search(grid, [0, 1])
        assert calls == [[(0.1, 0), (0.1, 1), (0.03, 0), (0.03, 1)]]
        assert [[t.config.seed for t in c.trials] for c in cells] == [[0, 1], [0, 1]]
        assert [c.trials[0].config.optimizer.lr for c in cells] == [0.1, 0.03]

    def test_grid_axes_are_the_grid_fields(self):
        # an axis field left out of GRID_AXES, or an axis without a field,
        # would be missing from the CSVs, the tie-break or the config's base
        fields = [f.name for f in dataclasses.fields(GridSpec) if f.name != "base"]
        assert tuple(fields) == GRID_AXES

    def test_each_config_sits_at_its_grid_point(self):
        grid = GridSpec(
            base=blob_config(epochs=1), lr=(0.1, 0.03), weight_decay=(0.0, 0.0003), gamma=(0.2, 0.5)
        )
        points = [tuple(grid_point(c).values()) for c in grid.configs()]
        assert points == list(itertools.product(grid.lr, grid.weight_decay, grid.gamma))

    def test_grid_size_and_schedule_lr_tracks_optimizer(self):
        base = blob_config(epochs=2)
        grid = GridSpec(
            base=base, lr=(0.1, 0.03), weight_decay=(0.0, 0.0003), gamma=(0.2, 0.5)
        )
        assert grid.size() == 8
        for cfg in grid.configs():
            assert lr_at_epoch(cfg.schedule, cfg.optimizer.lr, 0) == cfg.optimizer.lr


class TestFormatCell:
    def test_two_decimal_contract(self):
        assert format_cell(93.2, 0.41) == "93.20±0.41"
        assert format_cell(38.375, 34.0) == "38.38±34.00"


class TestMaterialize:
    def test_blob_split_sizes(self):
        cfg = blob_config(n=1000)
        train, valid, test = materialize_datasets(cfg.dataset)
        assert (len(train), len(valid), len(test)) == (800, 200, 200)

    def test_test_stream_independent_of_train(self):
        cfg = blob_config(n=1000)
        train, _, test = materialize_datasets(cfg.dataset)
        assert not np.array_equal(train.images[:200], test.images)

    def test_blobs_require_test_count(self):
        with pytest.raises(ConfigError):
            DatasetSpec(
                name="blobs",
                split=SplitSpec(train=80, valid=20, seed=0, test=0),
                blobs=BlobsSpec(n=100, classes=4, dim=8),
            )

    def test_cifar_requires_path(self):
        with pytest.raises(ConfigError):
            DatasetSpec(
                name="cifar10", split=SplitSpec(train=1, valid=1, seed=0), path=None
            )

    def test_standardize_toggle(self):
        from dataclasses import replace as dc_replace

        cfg = blob_config(n=1000)
        raw_train, _, _ = materialize_datasets(cfg.dataset)
        std_spec = dc_replace(cfg.dataset, standardize=True)
        train, valid, test = materialize_datasets(std_spec)
        # train statistics define the transform for all three splits
        np.testing.assert_allclose(train.images.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.images.std(axis=0), 1.0, atol=1e-12)
        assert not np.array_equal(raw_train.images, train.images)
        assert abs(float(valid.images.mean())) < 0.5


def toy_quadratic_model() -> Model:
    model = build_model([Dense(1, 1)], seed=0)
    model.flat[:] = 0.0
    return model


class TestLandscape:
    def test_center_cell_equals_model_loss_exactly(self):
        model, _ = train_model(blob_config(epochs=2))
        train, _, _ = materialize_datasets(blob_config().dataset)
        surface = landscape_slice(model, train, grid_n=5, radius=0.5, seed=3)
        logits_loss = 0.0
        total = 0
        from telulab.data import batch_iter

        for xb, yb in batch_iter(train, 512, shuffle=False):
            logits, _ = forward(model, xb)
            loss, _ = softmax_cross_entropy(logits, yb)
            logits_loss += loss * len(yb)
            total += len(yb)
        assert surface.losses[2, 2] == logits_loss / total

    def test_seeded_surfaces_identical(self):
        model, _ = train_model(blob_config(epochs=2))
        train, _, _ = materialize_datasets(blob_config().dataset)
        a = landscape_slice(model, train, 5, 0.5, seed=3)
        b = landscape_slice(model, train, 5, 0.5, seed=3)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_different_seed_different_surface(self):
        model, _ = train_model(blob_config(epochs=2))
        train, _, _ = materialize_datasets(blob_config().dataset)
        a = landscape_slice(model, train, 5, 0.5, seed=3)
        b = landscape_slice(model, train, 5, 0.5, seed=4)
        assert not np.array_equal(a.losses, b.losses)

    def test_quadratic_toy_matches_closed_form(self):
        # loss = p^2 / 2 around p = 0; the zero-norm fallback keeps the raw
        # directions, so the expected surface follows them exactly
        model = toy_quadratic_model()
        d1, d2 = draw_directions(model, seed=11)

        def loss_fn(m: Model) -> float:
            return 0.5 * float(m.params[0].data[0, 0]) ** 2

        surface = landscape_slice(model, None, 3, 1.0, seed=11, loss_fn=loss_fn)
        u = d1[0] + 0.0  # weight component of direction 1
        v = d2[0]
        for i, a in enumerate((-1.0, 0.0, 1.0)):
            for j, b in enumerate((-1.0, 0.0, 1.0)):
                expected = 0.5 * (a * u + b * v) ** 2
                assert surface.losses[i, j] == pytest.approx(expected, rel=1e-12, abs=0), (
                    f"cell ({a}, {b})"
                )
        assert surface.losses[1, 1] == 0.0

    def test_params_restored_after_slice(self):
        model, _ = train_model(blob_config(epochs=2))
        train, _, _ = materialize_datasets(blob_config().dataset)
        before = model.flat.copy()
        landscape_slice(model, train, 3, 1.0, seed=0)
        np.testing.assert_array_equal(before, model.flat)

    def test_diverging_cells_are_inf_and_center_exact(self):
        # two stacked dense layers scaled by 1e200 give logits near 1e400:
        # every perturbed forward overflows and raises DivergenceError
        model = build_model([Dense(4, 8), Dense(8, 3)], seed=2)
        ds = synthetic_blobs(30, classes=3, dim=4, spread=0.2, seed=5)
        before = model.flat.copy()
        d1, _ = draw_directions(model, seed=7)
        model.flat[:] = before + 1e200 * d1
        with pytest.raises(DivergenceError):
            forward(model, ds.images)
        model.flat[:] = before

        surface = landscape_slice(model, ds, grid_n=3, radius=1e200, seed=7)
        off_center = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
        for i, j in off_center:
            assert surface.losses[i, j] == math.inf, (i, j)
        assert surface.losses[1, 1] == _evaluate(model, ds)[1]
        assert before.tobytes() == model.flat.tobytes()

    @pytest.mark.parametrize("grid_n, radius", [(3, 0.5), (7, 0.21)])
    def test_center_is_the_model_even_for_an_infinite_direction(self, grid_n, radius):
        # a last bias of 1e200 overflows its filter norm, so both directions
        # hold inf there; linspace(-0.21, 0.21, 7) puts its middle at -2.8e-17
        model, _ = train_model(blob_config(epochs=1))
        train, _, _ = materialize_datasets(blob_config().dataset)
        model.views(model.flat)[-1][0] = 1e200
        before = model.flat.copy()
        d1, d2 = draw_directions(model, seed=3)
        assert not (np.isfinite(d1).all() or np.isfinite(d2).all())
        surface = landscape_slice(model, train, grid_n, radius, seed=3)
        c = grid_n // 2
        assert surface.axis[c] == 0.0
        assert math.isfinite(surface.losses[c, c])
        assert surface.losses[c, c] == _evaluate(model, train)[1]
        assert before.tobytes() == model.flat.tobytes()

    def test_cell_bound_admits_the_largest_odd_grid_only(self):
        largest = math.isqrt(MAX_LANDSCAPE_CELLS)
        largest -= 1 - largest % 2
        check_landscape_args(largest, 1.0, 0)
        with pytest.raises(ConfigError, match="cells"):
            check_landscape_args(largest + 2, 1.0, 0)

    def test_even_grid_rejected(self):
        model = toy_quadratic_model()
        with pytest.raises(ConfigError):
            landscape_slice(model, None, 4, 1.0, 0, loss_fn=lambda m: 0.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1e308])
    def test_radius_positive_with_finite_span(self, radius):
        # 1e308 is finite, but the grid's span 2e308 is not
        model = toy_quadratic_model()
        with pytest.raises(ConfigError, match="radius"):
            landscape_slice(model, None, 3, radius, 0, loss_fn=lambda m: 0.0)

    def test_filter_norm_matches_model_filters(self):
        model, _ = train_model(blob_config(epochs=1))
        d1, _ = draw_directions(model, seed=0)
        w = model.params[0].data  # dense weight (in, out)
        d1_w = model.views(d1)[0]
        for j in range(w.shape[1]):
            assert np.linalg.norm(d1_w[:, j]) == pytest.approx(
                np.linalg.norm(w[:, j]), rel=1e-12, abs=0
            )


class TestFisher:
    def test_logistic_hand_value(self):
        # p(y=1) = sigmoid(w*x) realized as 2-logit softmax with both
        # weights zero; at x = 1, y = 1 every squared gradient entry is 0.25
        model = build_model([Dense(1, 2)], seed=0)
        model.flat[:] = 0.0
        ds = synthetic_blobs(4, classes=2, dim=2, spread=0.1, seed=0)
        ds = type(ds)(
            images=np.array([[1.0]]), labels=np.array([1]), meta=ds.meta
        )
        diag = empirical_fisher_diag(model, ds, 1)
        np.testing.assert_allclose(diag, 0.25, atol=1e-12)

    def test_nonnegative_on_random_models(self):
        for seed in range(5):
            model = build_model(
                [Dense(6, 8), Activation(TELU), Dense(8, 3)], seed=seed
            )
            ds = synthetic_blobs(40, classes=3, dim=6, spread=0.3, seed=seed)
            diag = empirical_fisher_diag(model, ds, 40)
            assert np.all(diag >= 0.0)
            assert diag.shape == model.flat.shape

    def test_halves_average_equals_full(self):
        model = build_model([Dense(4, 6), Activation(TELU), Dense(6, 2)], seed=1)
        ds = synthetic_blobs(20, classes=2, dim=4, spread=0.2, seed=2)
        full = empirical_fisher_diag(model, ds, 20)
        first = empirical_fisher_diag(model, ds, 10)
        second_ds = ds.take(np.arange(10, 20), "train")
        second = empirical_fisher_diag(model, second_ds, 10)
        np.testing.assert_allclose(full, 0.5 * (first + second), atol=1e-12)

    def test_dead_relu_blocks_upstream_entries(self):
        # negative biases kill the ReLU for zero input: every parameter
        # behind the dead unit has exactly zero Fisher information
        model = build_model([Dense(2, 3), Activation(RELU), Dense(3, 2)], seed=0)
        model.params[1].data[...] = -1.0  # hidden biases force pre-activation < 0
        ds = synthetic_blobs(4, classes=2, dim=2, spread=0.1, seed=0)
        ds = type(ds)(
            images=np.zeros((1, 2)), labels=np.array([0]), meta=ds.meta
        )
        diag = empirical_fisher_diag(model, ds, 1)
        w1_size = 2 * 3 + 3
        w2_size = 3 * 2
        np.testing.assert_array_equal(diag[: w1_size + w2_size], 0.0)
        np.testing.assert_allclose(diag[-2:], 0.25, atol=1e-12)

    def test_sample_budget_validated(self):
        model = build_model([Dense(2, 2)], seed=0)
        ds = synthetic_blobs(4, classes=2, dim=2, spread=0.1, seed=0)
        with pytest.raises(ConfigError):
            empirical_fisher_diag(model, ds, 5)


def batch1_fisher(model, dataset, n):
    """Reference Fisher diagonal: one batch-1 forward and backward per
    sample through the public engine, the squares summed in sample order."""
    accum = np.zeros_like(model.flat)
    for x, y in itertools.islice(batch_iter(dataset, 1), n):
        logits, tape = forward(model, x, record=True)
        _, loss_grad = softmax_cross_entropy(logits, y)
        grads = backward(tape, loss_grad)
        for view, p in zip(model.views(accum), model.params):
            view += grads[p] ** 2
    return accum / n


def small_cnn():
    """Every layer type: conv, activation, pool, flatten, dense."""
    return build_model(
        [
            Conv2d(3, 4, 3),
            Activation(TELU),
            MaxPool2(),
            Conv2d(4, 5, 2),
            Activation(TELU),
            MaxPool2(),
            Flatten(),
            Dense(5, 6),
            Activation(TELU),
            Dense(6, 3),
        ],
        seed=3,
    )


def image_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(n, 3, 8, 8))
    labels = rng.integers(0, 3, size=n)
    return Dataset(images, labels, DataMeta("images", 3, "train"))


def mlp_case():
    model = build_model([Dense(6, 8), Activation(TELU), Dense(8, 3)], seed=4)
    return model, synthetic_blobs(80, classes=3, dim=6, spread=0.3, seed=4)


class TestBatchedFisher:
    """The probe runs fixed batches of per-example squared gradients; it
    must agree with one backward per sample up to rounding."""

    @pytest.mark.parametrize("n", [1, 32, 37, 70])
    @pytest.mark.parametrize("case", ["cnn", "mlp"])
    def test_matches_batch1_reference(self, case, n):
        model, ds = (small_cnn(), image_dataset(80)) if case == "cnn" else mlp_case()
        got = empirical_fisher_diag(model, ds, n)
        want = batch1_fisher(model, ds, n)
        assert got.shape == model.flat.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.all(got > 0.0)

    @pytest.mark.parametrize("case", ["cnn", "mlp"])
    def test_worker_count_moves_no_bits(self, case, monkeypatch):
        model, ds = (small_cnn(), image_dataset(80)) if case == "cnn" else mlp_case()
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(autograd, "WORKERS", workers)
            results.append(empirical_fisher_diag(model, ds, 37))
        np.testing.assert_array_equal(results[0].view(np.int64), results[1].view(np.int64))

    def test_non_finite_gradient_raises(self):
        # zero hidden units, so the forward pass is finite; class 0 wins, so
        # a label-1 row has loss gradient (1, -1), and the hidden gradient
        # 1.5e308 + 1.5e308 overflows
        model = build_model([Dense(1, 1), Dense(1, 2)], seed=0)
        model.flat[:] = [0.0, 0.0, 1.5e308, -1.5e308, 100.0, 0.0]
        ds = Dataset(np.zeros((3, 1)), np.array([1, 1, 1]), DataMeta("blobs", 2, "train"))
        with pytest.raises(DivergenceError):
            empirical_fisher_diag(model, ds, 3)

    def test_overflowing_squared_gradient_raises(self):
        # the gradient 0.5e200 is finite; its square is not
        model = build_model([Dense(1, 2)], seed=0)
        model.flat[:] = 0.0
        ds = Dataset(np.array([[1e200]]), np.array([1]), DataMeta("blobs", 2, "train"))
        with pytest.raises(DivergenceError):
            empirical_fisher_diag(model, ds, 1)

    def test_overflowing_sum_over_batches_raises(self):
        # each batch of 32 sums its squared weight gradients to 1.5e308,
        # finite; two batches overflow
        model = build_model([Dense(1, 2)], seed=0)
        model.flat[:] = 0.0
        x = math.sqrt(1.5e308 / 32 / 0.25)
        ds = Dataset(np.full((64, 1), x), np.ones(64, int), DataMeta("blobs", 2, "train"))
        assert np.all(np.isfinite(empirical_fisher_diag(model, ds, 32)))
        with pytest.raises(DivergenceError, match="Fisher"):
            empirical_fisher_diag(model, ds, 64)


def assert_params_share_flat(model):
    assert model.params
    for p in model.params:
        assert np.shares_memory(p.data, model.flat)


class TestFlatParametersSurviveProbes:
    """Training, the landscape and the Fisher probe all leave every
    parameter a view of ``model.flat``."""

    def test_after_fit(self):
        model, _ = train_model(blob_config(epochs=1))
        assert_params_share_flat(model)

    def test_after_landscape_slice(self):
        model = small_cnn()
        before = model.flat.copy()
        ds = image_dataset(6)
        landscape_slice(model, ds, 3, 0.5, seed=1)
        assert_params_share_flat(model)
        assert model.flat.tobytes() == before.tobytes()

    def test_after_fisher_probe(self):
        model = small_cnn()
        before = model.flat.copy()
        empirical_fisher_diag(model, image_dataset(6), 6)
        assert_params_share_flat(model)
        assert model.flat.tobytes() == before.tobytes()

    def test_directions_are_filter_normalized_per_view(self):
        model = small_cnn()
        d1, d2 = draw_directions(model, seed=5)
        assert d1.shape == d2.shape == model.flat.shape
        conv_w = model.params[0].data
        d1_conv_w = model.views(d1)[0]
        for o in range(conv_w.shape[0]):
            assert np.linalg.norm(d1_conv_w[o]) == pytest.approx(np.linalg.norm(conv_w[o]), rel=1e-12, abs=0)
        # a zero bias keeps the raw draw
        assert np.count_nonzero(model.views(d1)[1]) == model.params[1].data.size

    def test_parameterless_model_has_an_empty_fisher_vector(self):
        model = Model((Flatten(),), [])
        ds = Dataset(np.eye(3), np.array([0, 1, 2]), DataMeta("blobs", 3, "train"))
        diag = empirical_fisher_diag(model, ds, 3)
        assert diag.shape == (0,)
