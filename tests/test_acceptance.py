"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion, named c01..c15; the terminal summary (see
conftest) prints a PASS/FAIL line for each.  Property criteria run in
seconds; the learnability smoke (c11) dominates the runtime and stays
well under its five-minute budget.
"""

import json
import math
import time

import numpy as np
import pytest

from telulab import kernels
from telulab.autograd import Activation, Dense, build_model
from telulab.cli import main
from telulab.data import SplitSpec, load_cifar10, synthetic_blobs, write_cifar10
from telulab.errors import FormatError, UnsupportedOperationError
from telulab.harness import (
    BlobsSpec,
    DatasetSpec,
    TrainConfig,
    empirical_fisher_diag,
    format_cell,
    landscape_slice,
    materialize_datasets,
    replicate,
    run_trial,
    train_model,
)
from telulab.kernels import ALL_KINDS, RELU, TELU
from telulab.optim import (
    LrSchedule,
    OptimizerConfig,
    OptimizerState,
    lr_at_epoch,
    step,
)
from telulab.autograd import Tensor, cross_entropy_rows, forward
from telulab.properties import (
    Interval,
    bounded_output_scan,
    find_derivative_roots,
    gaussian_mean,
    grad_consistency,
    interval_mean,
    saturation_profile,
    sup_abs_derivative,
    verify_activation,
)

from oracles import finite_difference_check


def test_c01_gradient_consistency_all_kinds():
    """Closed forms match finite differences: f' at 1e-5 relative,
    f'' at 1e-4 absolute, in under a second."""
    t0 = time.perf_counter()
    for kind in ALL_KINDS:
        rep = grad_consistency(kind, Interval(-5, 5, 1001), 1e-5)
        assert rep.ok, f"{kind.display_name}: {rep.measured:.2e}"
        assert rep.measured < 1e-5
        if kernels.has_second_derivative(kind):
            rep2 = grad_consistency(kind, Interval(-5, 5, 1001), 1e-4, order=2)
            assert rep2.ok, f"{kind.display_name} f'': {rep2.measured:.2e}"
            assert rep2.measured < 1e-4
        else:
            with pytest.raises(UnsupportedOperationError):
                grad_consistency(kind, Interval(-5, 5, 1001), 1e-4, order=2)
    assert time.perf_counter() - t0 < 1.0


def test_c02_output_bound():
    """|TeLU(x)| <= |x| + 1e-12 across [-50, 50], in under a second."""
    t0 = time.perf_counter()
    rep = bounded_output_scan(TELU, Interval(-50, 50, 10001))
    assert rep.verdict == "holds"
    assert rep.measured <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_c03_saturation():
    """Positive tail locks to the identity, negative tail to zero."""
    pos_gap, neg_limit = saturation_profile(TELU)
    assert pos_gap < 1e-8
    assert neg_limit < 1e-3


def test_c04_relu_interval_mean_identity():
    """Uniform-interval mean of ReLU equals a/4 to 1e-9 relative."""
    for a in (1.0, 4.0, 8.0, 100.0):
        assert interval_mean(RELU, a) == pytest.approx(a / 4.0, rel=1e-9, abs=0)


def test_c05_gaussian_mean_shift():
    """TeLU's Gaussian mean sits strictly inside ReLU's for every sigma;
    ReLU's matches its closed form 1/sqrt(2*pi) to 1e-8."""
    assert gaussian_mean(RELU, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-8
    )
    for sigma in (0.5, 1.0, 2.0, 4.0):
        assert abs(gaussian_mean(TELU, sigma)) < gaussian_mean(RELU, sigma)


def test_c06_lipschitz_caveat():
    """sup |TeLU'| is finite, in (1, 1.1), two-stage stable to 1e-3, and
    the claim battery reports it as holding with a caveat."""
    est = sup_abs_derivative(TELU, Interval(-10, 10, 10001))
    assert math.isfinite(est.refined_value)
    assert 1.0 < est.refined_value < 1.1
    assert abs(est.refined_value - est.grid_value) < 1e-3
    reports = {r.claim_id: r for r in verify_activation(TELU)}
    assert reports["telu.lipschitz_constant"].verdict == "holds_with_caveat"


def test_c07_derivative_root_adjudication():
    """No derivative zero on [0, 50]; exactly one in [-1.2, -1.0]; the
    claim battery records it as the counterexample witness."""
    assert find_derivative_roots(TELU, Interval(0.0, 50.0, 5001), 1e-10) == []
    roots = find_derivative_roots(TELU, Interval(-1.2, -1.0, 201), 1e-10)
    assert len(roots) == 1
    reports = {r.claim_id: r for r in verify_activation(TELU)}
    claim = reports["telu.nonvanishing_gradient"]
    assert claim.verdict == "holds_with_caveat"
    assert claim.witness == pytest.approx(roots[0], abs=1e-8)


def test_c08_autograd_against_finite_differences():
    """Backprop matches central differences on 20 random small MLPs for
    every activation kind."""
    for kind in ALL_KINDS:
        for trial in range(20):
            rng = np.random.default_rng(10_000 + trial)
            hidden = int(rng.integers(4, 16))
            model = build_model(
                [Dense(3, hidden), Activation(kind), Dense(hidden, 3)],
                seed=trial,
            )
            assert model.flat.size <= 200
            batch = rng.normal(size=(5, 3))
            labels = rng.integers(0, 3, size=5)
            err = finite_difference_check(model, batch, labels, h=1e-6)
            assert err < 1e-4, f"{kind.display_name} trial {trial}: {err:.2e}"


def test_c09_optimizer_unit_identities():
    """SGD one-step arithmetic, AdamW decoupled decay, step-decay ladder."""
    params = [Tensor(np.array([1.0]))]
    state = OptimizerState(OptimizerConfig("sgd", lr=0.1))
    step(state, params, {params[0]: np.array([0.5])}, lr_now=0.1)
    assert float(params[0].data[0]) == pytest.approx(0.95, abs=1e-15)

    cfg = OptimizerConfig("adamw", lr=0.01, weight_decay=0.1)
    params = [Tensor(np.array([1.0]))]
    state = OptimizerState(cfg)
    expected = 1.0
    for _ in range(4):
        step(state, params, {params[0]: np.array([0.0])}, lr_now=0.01)
        expected *= 1.0 - 0.01 * 0.1
        assert float(params[0].data[0]) == pytest.approx(expected, rel=1e-12, abs=0)

    sched = LrSchedule(gamma=0.2, milestones=(60, 120, 160))
    assert lr_at_epoch(sched, 0.1, 0) == 0.1
    assert lr_at_epoch(sched, 0.1, 60) == pytest.approx(0.02)
    assert lr_at_epoch(sched, 0.1, 120) == pytest.approx(0.004)
    assert lr_at_epoch(sched, 0.1, 160) == pytest.approx(8e-4)
    assert lr_at_epoch(sched, 0.1, 199) == pytest.approx(8e-4)


def test_c10_cifar_reader_contract(tmp_path):
    """Two-record fixture round-trips bitwise; malformed files rejected."""
    rng = np.random.default_rng(5)
    records = np.empty((2, 3073), dtype=np.uint8)
    records[:, 0] = [3, 7]
    records[:, 1:] = rng.integers(0, 256, size=(2, 3072))
    src = tmp_path / "fixture.bin"
    src.write_bytes(records.tobytes())

    ds = load_cifar10(src)
    np.testing.assert_array_equal(ds.labels, [3, 7])
    out = tmp_path / "copy.bin"
    write_cifar10(ds, out)
    assert src.read_bytes() == out.read_bytes()

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(records.tobytes()[:-1])
    with pytest.raises(FormatError):
        load_cifar10(truncated)

    bad_label = tmp_path / "label.bin"
    bad = records.copy()
    bad[0, 0] = 10
    bad_label.write_bytes(bad.tobytes())
    with pytest.raises(FormatError):
        load_cifar10(bad_label)


LR_GRIDS = {
    "sgd": (0.1, 0.03),
    "momentum": (0.1, 0.03),
    "adamw": (0.01, 0.003),
    "rmsprop": (0.003, 0.001),
}


def smoke_config(kind, opt_kind, lr) -> TrainConfig:
    return TrainConfig(
        layers=(Dense(32, 32), Activation(kind), Dense(32, 10)),
        optimizer=OptimizerConfig(opt_kind, lr=lr, weight_decay=0.0003),
        schedule=LrSchedule(gamma=0.2, milestones=(6, 12, 16)),
        epochs=20,
        batch=128,
        dataset=DatasetSpec(
            name="blobs",
            split=SplitSpec(train=1600, valid=400, seed=0, test=400),
            blobs=BlobsSpec(n=2000, classes=10, dim=32, spread=0.1, seed=0),
        ),
        seed=0,
    )


def test_c11_learnability_smoke():
    """Every {TeLU, ReLU} x optimizer pair trains past 90% with a tuned
    learning rate from a small grid, with no divergence events."""
    t0 = time.perf_counter()
    for kind in (TELU, RELU):
        for opt_kind, lrs in LR_GRIDS.items():
            results = [run_trial(smoke_config(kind, opt_kind, lr)) for lr in lrs]
            best = max(results, key=lambda r: r.epochs[-1].train_acc if r.epochs else 0.0)
            assert not best.diverged, f"{kind.display_name}/{opt_kind} diverged"
            assert best.epochs[-1].train_acc > 90.0, (
                f"{kind.display_name}/{opt_kind}: best {best.epochs[-1].train_acc:.1f}%"
            )
    assert time.perf_counter() - t0 < 300.0


def test_c12_replicate_determinism(tmp_path):
    """Replicating seeds [0, 1, 2] twice through the CLI produces
    byte-identical CSV artifacts."""
    cfg = {
        "model": {
            "layers": [
                {"type": "dense", "in": 16, "out": 24},
                {"type": "activation"},
                {"type": "dense", "in": 24, "out": 4},
            ]
        },
        "activation": "telu",
        "optimizer": {"kind": "momentum", "lr": 0.05, "weight_decay": 0.0003},
        "schedule": {"gamma": 0.2, "milestones": [4, 6]},
        "epochs": 5,
        "batch": 64,
        "dataset": {
            "name": "blobs",
            "blobs": {"n": 500, "classes": 4, "dim": 16, "spread": 0.08, "seed": 0},
            "split": {"train": 400, "valid": 100, "test": 100, "seed": 0},
        },
        "seeds": [0, 1, 2],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["replicate", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["replicate", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("results.csv", "curves.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_c13_summary_arithmetic():
    """The printed mean±std cell equals recomputation from stored rows."""
    cfg = smoke_config(TELU, "sgd", 0.1)
    summary, trials = replicate(cfg, [0, 1, 2])
    accs = [t.test_acc for t in trials]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1))
    assert summary.cell() == format_cell(mean, std)
    assert summary.mean_conc == pytest.approx(
        float(np.mean([t.conc for t in trials])), abs=1e-12
    )


def test_c14_landscape_center_and_determinism():
    """The center cell is the unperturbed loss bit-for-bit; surfaces are a
    pure function of the direction seed."""
    cfg = smoke_config(TELU, "sgd", 0.1)
    cfg = TrainConfig(
        layers=cfg.layers,
        optimizer=cfg.optimizer,
        schedule=cfg.schedule,
        epochs=3,
        batch=cfg.batch,
        dataset=cfg.dataset,
        seed=0,
    )
    model, _ = train_model(cfg)
    train_ds, _, _ = materialize_datasets(cfg.dataset)

    from telulab.data import batch_iter

    losses = []
    for xb, yb in batch_iter(train_ds, 512, shuffle=False):
        logits, _ = forward(model, xb)
        losses.extend(cross_entropy_rows(logits, yb)[0].tolist())
    direct_loss = math.fsum(losses) / len(losses)

    for grid_n in (3, 5):
        surface = landscape_slice(model, train_ds, grid_n, 0.5, seed=9)
        assert surface.losses[grid_n // 2, grid_n // 2] == direct_loss

    a = landscape_slice(model, train_ds, 5, 0.5, seed=9)
    b = landscape_slice(model, train_ds, 5, 0.5, seed=9)
    np.testing.assert_array_equal(a.losses, b.losses)


def test_c15_fisher_probe():
    """Hand-computed logistic value 0.25 to 1e-12; nonnegative diagonals
    on random models."""
    model = build_model([Dense(1, 2)], seed=0)
    model.flat[:] = 0.0
    base = synthetic_blobs(4, classes=2, dim=2, spread=0.1, seed=0)
    ds = type(base)(images=np.array([[1.0]]), labels=np.array([1]), meta=base.meta)
    diag = empirical_fisher_diag(model, ds, 1)
    np.testing.assert_allclose(diag, 0.25, atol=1e-12)

    for seed in range(5):
        model = build_model([Dense(8, 12), Activation(TELU), Dense(12, 4)], seed=seed)
        blobs = synthetic_blobs(64, classes=4, dim=8, spread=0.3, seed=seed)
        values = empirical_fisher_diag(model, blobs, 64)
        assert np.all(values >= 0.0)
