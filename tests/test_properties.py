"""Property tests over random valid shapes, drawn by Hypothesis.

Examples are derandomized, so every run draws the same cases and the
suite stays deterministic; the draws still cover shapes no hand-written
case names. The module is skipped where Hypothesis is not installed.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from wavets.model import (  # noqa: E402
    TRANSFORM_KINDS,
    ModelConfig,
    apply_operator,
    compile_operator,
    forward_batch,
    init_params,
    param_blocks,
)
from wavets.wavelet import SUPPORTED_WAVELETS, make_filterbank  # noqa: E402
from wavets.wdt import (  # noqa: E402
    scalogram,
    wdt_forward,
    wdt_inverse,
    write_coefficients_csv,
    write_scalogram_csv,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def model_configs(draw) -> ModelConfig:
    """Any valid config: wavelet kinds need L and L+tau divisible by 2^K."""
    kind = draw(st.sampled_from(TRANSFORM_KINDS))
    levels = draw(st.integers(1, 3))
    block = 2**levels if kind != "dft" else 1
    lookback = block * draw(st.integers(1, 48 // block))
    horizon = block * draw(st.integers(1, 24 // block))
    branches = draw(st.integers(1, 3))
    orders = draw(st.none() | st.lists(st.integers(0, 3), min_size=branches, max_size=branches))
    return ModelConfig(
        lookback=lookback,
        horizon=horizon,
        channels=draw(st.integers(1, 3)),
        branches=branches,
        levels=levels,
        transform_kind=kind,
        seed=draw(st.integers(0, 2**16)),
        branch_orders=orders,
    )


@PROPERTY_SETTINGS
@given(cfg=model_configs(), batch=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_compiled_operator_matches_forward_batch(cfg, batch, seed):
    cfg.ensure_valid()
    gen = np.random.default_rng(seed)
    params = init_params(cfg, cfg.seed)
    for _, _, bias in param_blocks(params, cfg):
        bias[...] = gen.standard_normal(bias.shape)
    xs = 2.0 * gen.standard_normal((batch, cfg.lookback, cfg.channels)) - 1.0
    weight, bias = compile_operator(params, cfg)
    want = forward_batch(xs, params, cfg)
    got = apply_operator(xs, weight, bias, cfg)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@st.composite
def transform_cases(draw):
    levels = draw(st.integers(1, 8))
    length = 2**levels * draw(st.integers(1, max(1, 512 >> levels)))
    signal = draw(
        arrays(np.float64, length, elements=st.floats(-100.0, 100.0, allow_nan=False))
    )
    return signal, levels, draw(st.integers(0, 6)), draw(st.sampled_from(SUPPORTED_WAVELETS))


@PROPERTY_SETTINGS
@given(case=transform_cases())
def test_wdt_round_trip_any_valid_length_level_order(case):
    signal, levels, order, wavelet = case
    fb = make_filterbank(wavelet)
    rebuilt = wdt_inverse(wdt_forward(signal, fb, levels, order), fb)
    assert rebuilt.shape == signal.shape
    assert np.max(np.abs(rebuilt - signal)) <= 1e-9


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and float64 bit patterns, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@PROPERTY_SETTINGS
@given(case=transform_cases())
def test_exports_parse_back_to_the_bands_and_grid(case):
    signal, levels, order, wavelet = case
    pyr = wdt_forward(signal, make_filterbank(wavelet), levels, order)
    with tempfile.TemporaryDirectory() as tmp:
        coeffs_path, grid_path = Path(tmp) / "c.csv", Path(tmp) / "s.csv"
        write_coefficients_csv(pyr, str(coeffs_path))
        write_scalogram_csv(pyr, str(grid_path))
        coeff_lines = coeffs_path.read_text().splitlines()
        grid_lines = grid_path.read_text().splitlines()
    grid = scalogram(pyr)
    assert grid_lines[0] == "band," + ",".join(str(i) for i in range(signal.shape[0]))
    rows = [line.split(",") for line in grid_lines[1:]]
    assert [row[0] for row in rows] == [f"LL{levels}"] + [f"LH{lv}" for lv in range(levels, 0, -1)]
    assert same_bits([[float(v) for v in row[1:]] for row in rows], grid)

    assert coeff_lines[0] == "band,index,value,gain"
    records = [line.split(",") for line in coeff_lines[1:]]
    bands = [(f"LL{levels}", pyr.base.approx, 1.0)] + [
        (f"LH{lv}", pyr.base.details[lv - 1], pyr.gains[lv - 1]) for lv in range(levels, 0, -1)
    ]
    start = 0
    for label, band, gain in bands:
        chunk = records[start : start + band.shape[0]]
        start += band.shape[0]
        assert [(r[0], int(r[1]), float(r[3])) for r in chunk] == [
            (label, i, gain) for i in range(band.shape[0])
        ]
        assert same_bits([float(r[2]) for r in chunk], band)
    assert start == len(records)
