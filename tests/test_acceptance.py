"""Release gate: ten binary criteria over the whole package.

Each test prints exactly one PASS/FAIL line (run with -s or check the
captured output) and enforces its stated tolerance and runtime budget.
Criterion 8 needs data/ETTh1.csv, which is not distributed here; when
the file is absent that single criterion reports SKIP.
"""

import contextlib
import io
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wavets.cli import load_run_config, load_splits, main, split_window_pairs
from wavets.metrics import mae, mase, mse, naive_seasonal, owa, smape
from wavets.model import (
    ModelConfig,
    forward_batch,
    init_params,
    load_checkpoint,
)
from wavets.train import evaluate_loss
from wavets.wavelet import dwt_multi, make_filterbank
from wavets.wdt import change_amplification, energy_report, wdt_forward, wdt_inverse

REPO = Path(__file__).resolve().parent.parent
TINY_CONFIG = REPO / "configs" / "tiny_synthetic.json"
GRADCHECK_CONFIG = REPO / "configs" / "gradcheck.json"
ETTH1_CONFIG = REPO / "configs" / "etth1.json"
ETTH1_CSV = REPO / "data" / "ETTh1.csv"


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} [{label}] failed: {detail}"


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One full training run of the shipped synthetic config.

    Shared by criteria 6, 7, and 10 so the gate trains the reference
    model once and reruns it once more for the determinism check.
    """
    out = tmp_path_factory.mktemp("tiny_run")
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train", "--config", str(TINY_CONFIG), "--out", str(out)])
    seconds = time.perf_counter() - started
    assert rc == 0, "training the shipped synthetic config failed"
    return {"out": out, "seconds": seconds}


def test_criterion_01_perfect_reconstruction(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(11011)
    fb = make_filterbank("db1")
    worst = 0.0
    for _ in range(1000):
        levels = int(rng.integers(1, 6))
        order = int(rng.integers(0, 5))
        length = (2**levels) * int(rng.integers(1, 9))
        x = rng.standard_normal(length)
        back = wdt_inverse(wdt_forward(x, fb, levels, order), fb)
        worst = max(worst, float(np.max(np.abs(back - x))))
    seconds = time.perf_counter() - started
    with capsys.disabled():
        report(
            1,
            "perfect reconstruction",
            worst < 1e-9 and seconds < 5.0,
            f"max error {worst:.3e}, {seconds:.2f}s",
        )


def test_criterion_02_energy_conservation(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(22022)
    fb = make_filterbank("db1")
    worst = 0.0
    for _ in range(200):
        levels = int(rng.integers(1, 6))
        order = int(rng.integers(0, 5))
        length = (2**levels) * int(rng.integers(1, 9))
        x = rng.standard_normal(length) * float(rng.uniform(0.1, 10.0))
        rep = energy_report(x, wdt_forward(x, fb, levels, order))
        rel = abs(rep.coeff_energy_unscaled - rep.signal_energy) / rep.signal_energy
        worst = max(worst, rel)
    seconds = time.perf_counter() - started
    with capsys.disabled():
        report(
            2,
            "energy conservation",
            worst < 1e-12 and seconds < 1.0,
            f"max relative error {worst:.3e}, {seconds:.2f}s",
        )


def test_criterion_03_order_zero_degeneracy(capsys):
    rng = np.random.default_rng(33033)
    fb = make_filterbank("db1")
    bit_identical = True
    for _ in range(50):
        levels = int(rng.integers(1, 5))
        x = rng.standard_normal((2**levels) * int(rng.integers(1, 9)))
        zero = wdt_forward(x, fb, levels, order=0)
        plain = dwt_multi(x, fb, levels)
        for a, b in zip(zero.bands, plain, strict=True):
            bit_identical &= np.array_equal(a, b)

    config = ModelConfig(
        lookback=16, horizon=8, channels=2, branches=2, levels=2, seed=5
    )
    dwt_config = replace(config, transform_kind="dwt")
    zeros_config = replace(config, branch_orders=[0, 0])
    params = init_params(config, seed=5)
    xs = rng.standard_normal((6, 16, 2))
    gap = float(
        np.max(
            np.abs(
                forward_batch(xs, params, dwt_config)
                - forward_batch(xs, params, zeros_config)
            )
        )
    )
    ok = bit_identical and gap < 1e-12
    with capsys.disabled():
        report(
            3,
            "order-0 degeneracy",
            ok,
            f"coefficients bit-identical={bit_identical}, model gap {gap:.3e}",
        )


def test_criterion_04_gain_exactness(capsys):
    rng = np.random.default_rng(44044)
    fb = make_filterbank("db1")
    exact = True
    for _ in range(100):
        levels = int(rng.integers(1, 5))
        order = int(rng.integers(0, 4))
        x = rng.standard_normal((2**levels) * int(rng.integers(2, 9)))
        ratios = change_amplification(x, fb, levels, order)
        for lv, ratio in zip(range(1, levels + 1), ratios):
            expected = float(2 ** (order * (levels - lv + 1)))
            exact &= ratio == expected
    with capsys.disabled():
        report(4, "amplification ratios exact", exact)


def test_criterion_05_gradient_correctness(capsys):
    started = time.perf_counter()
    rc = main(["gradcheck", "--config", str(GRADCHECK_CONFIG)])
    seconds = time.perf_counter() - started
    with capsys.disabled():
        report(
            5,
            "gradcheck vs finite differences",
            rc == 0 and seconds < 10.0,
            f"exit {rc}, {seconds:.2f}s",
        )


def least_squares_optimum(run, spans):
    """Brute-force optimum of the joint loss over the model's map class.

    After per-window normalization the network is one shared affine map
    from the normalized lookback to the normalized joint target, and the
    de-normalization turns the loss into a weighted least-squares problem
    with each (window, channel) row weighted by its standard deviation.
    """
    lookback = run.model.lookback
    horizon = run.model.horizon
    t = spans
    xs = t[:, :lookback]
    b, _, c = xs.shape
    mu = xs.mean(axis=1)
    sd = xs.std(axis=1) + run.model.std_epsilon
    xt = (xs - mu[:, None, :]) / sd[:, None, :]
    tt = (t - mu[:, None, :]) / sd[:, None, :]
    rows_x = np.transpose(xt, (0, 2, 1)).reshape(b * c, lookback)
    rows_t = np.transpose(tt, (0, 2, 1)).reshape(b * c, lookback + horizon)
    weights = sd.reshape(b * c)
    design = np.concatenate([rows_x, np.ones((b * c, 1))], axis=1)
    design_w = design * weights[:, None]
    target_w = rows_t * weights[:, None]
    theta, _, _, _ = np.linalg.lstsq(design_w, target_w, rcond=None)
    resid = design_w @ theta - target_w
    return float(np.sum(resid**2) / (b * (lookback + horizon) * c))


def test_criterion_06_convergence_to_least_squares(tiny_run, capsys):
    run = load_run_config(str(TINY_CONFIG))
    run.ensure_valid(need_data=True)
    train_frame, _, _ = load_splits(run)
    train_spans = split_window_pairs(train_frame, run)

    optimum = least_squares_optimum(run, train_spans)
    params, _ = load_checkpoint(str(tiny_run["out"] / "checkpoint.json"))
    final = evaluate_loss(params, train_spans, run.model)
    gap = abs(final - optimum)
    ok = gap < 1e-4 and tiny_run["seconds"] < 120.0
    with capsys.disabled():
        report(
            6,
            "training reaches least-squares optimum",
            ok,
            f"final {final:.3e}, optimum {optimum:.3e}, gap {gap:.3e}, "
            f"train {tiny_run['seconds']:.1f}s",
        )


def test_criterion_07_beats_repeat_last_naive(tiny_run, capsys):
    run = load_run_config(str(TINY_CONFIG))
    run.ensure_valid(need_data=True)
    _, _, test_frame = load_splits(run)
    test_spans = split_window_pairs(test_frame, run)
    xs, ys = test_spans[:, : run.model.lookback], test_spans[:, run.model.lookback :]

    # naive oracle first, model second
    naive_preds = np.stack([naive_seasonal(x, run.model.horizon, 1) for x in xs])
    naive_mse = mse(ys, naive_preds)

    params, config = load_checkpoint(str(tiny_run["out"] / "checkpoint.json"))
    model_preds = forward_batch(xs, params, config)[:, config.lookback :, :]
    model_mse = mse(ys, model_preds)
    with capsys.disabled():
        report(
            7,
            "trained model beats repeat-last",
            model_mse < naive_mse,
            f"model {model_mse:.3e} vs naive {naive_mse:.3e}",
        )


def test_criterion_08_hourly_benchmark_reproduction(capsys):
    if not ETTH1_CSV.exists():
        with capsys.disabled():
            print(
                "criterion  8 [hourly benchmark reproduction]: SKIP "
                f"({ETTH1_CSV} not present)"
            )
        pytest.skip("benchmark CSV not present")
    started = time.perf_counter()
    out = ETTH1_CSV.parent.parent / "build_etth1_gate"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train", "--config", str(ETTH1_CONFIG), "--out", str(out)])
    seconds = time.perf_counter() - started
    assert rc == 0, "benchmark training failed"

    run = load_run_config(str(ETTH1_CONFIG))
    run.ensure_valid(need_data=True)
    _, _, test_frame = load_splits(run)
    test_spans = split_window_pairs(test_frame, run)
    xs, ys = test_spans[:, : run.model.lookback], test_spans[:, run.model.lookback :]
    params, config = load_checkpoint(str(out / "checkpoint.json"))
    preds = np.concatenate(
        [
            forward_batch(xs[i : i + 256], params, config)[:, config.lookback :, :]
            for i in range(0, xs.shape[0], 256)
        ]
    )
    test_mse = mse(ys, preds)
    test_mae = mae(ys, preds)
    ok = test_mse <= 0.41 and test_mae <= 0.43 and seconds < 600.0
    with capsys.disabled():
        report(
            8,
            "hourly benchmark reproduction",
            ok,
            f"mse {test_mse:.4f} (<=0.41), mae {test_mae:.4f} (<=0.43), "
            f"{seconds:.0f}s",
        )


def test_criterion_09_metric_unit_values(capsys):
    checks = [
        abs(mse(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) - 0.0),
        abs(mse(np.array([0.0, 0.0]), np.array([2.0, 0.0])) - 2.0),
        abs(mae(np.array([0.0, 0.0]), np.array([1.0, 3.0])) - 2.0),
        abs(smape(np.array([1.0]), np.array([3.0])) - 100.0),
        abs(smape(np.array([0.0, 0.0]), np.array([0.0, 0.0])) - 0.0),
        abs(mase(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), 1) - 1.0),
        abs(owa((50.0, 0.5), (100.0, 1.0)) - 0.5),
    ]
    worst = max(checks)
    with capsys.disabled():
        report(9, "metric unit values", worst < 1e-9, f"max deviation {worst:.2e}")


def test_criterion_10_deterministic_rerun(tiny_run, tmp_path, capsys):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train", "--config", str(TINY_CONFIG), "--out", str(tmp_path)])
    assert rc == 0
    same = True
    for name in ("checkpoint.json", "run_meta.json"):
        a = (tiny_run["out"] / name).read_bytes()
        b = (tmp_path / name).read_bytes()
        same &= a == b
    with capsys.disabled():
        report(10, "byte-identical rerun", same)
