"""Forecaster forward path: normalization, branch sandwich, projection,
checkpoint round-trips."""

import numpy as np
import pytest

from helpers import tiny_config
from wavets import ConfigError, DataError
from wavets.model import (
    CHECKPOINT_VERSION,
    ModelConfig,
    _centre_rows,
    compile_operator,
    forward_batch,
    init_params,
    load_checkpoint,
    param_blocks,
    param_count,
    param_layout,
    save_checkpoint,
    validate_params,
)
from wavets.train import evaluate_loss, gradient_batch


def identity_block_params(config: ModelConfig) -> np.ndarray:
    """FRUs embed each band into its padded slot; projection passes the
    first branch straight through."""
    params = np.zeros(param_count(config))
    for _, block in param_blocks(params, config):
        m = min(block.shape[0] - 1, block.shape[1])
        block[:m, :m] = np.eye(m)
    return params


def projection_bias(params: np.ndarray, config: ModelConfig) -> np.ndarray:
    return param_blocks(params, config)[-1][1][-1]


# Instance normalization is checked on model._centre_rows, the one
# normalization every path calls; it gives a time-major (L+1, B*C) array,
# column b*C + c holding window b's channel c centred and then its std,
# and the (B*C,) means. forward_batch maps the columns with the std row,
# which the biases meet. The denormalization is checked through forward_batch:
# with all maps zero, its output is the denormalized projection bias. An
# epsilon of 1e-20 vanishes against a unit std, so hand cases stay exact.
EXACT_EPS = 1e-20


def normalization_config(lookback, horizon, channels, std_epsilon=EXACT_EPS):
    return tiny_config(
        lookback=lookback, horizon=horizon, channels=channels, branches=1,
        levels=1, std_epsilon=std_epsilon,
    )


def centred_rows(xs: np.ndarray, std_epsilon: float = EXACT_EPS):
    """(centred (L+1, B*C) columns, each column's std last, and the means)
    of a (B, L, C) stack."""
    cfg = normalization_config(xs.shape[1], 2, xs.shape[2], std_epsilon)
    return _centre_rows(xs, cfg)


def denormalized(xs: np.ndarray, horizon: int, proj_bias: np.ndarray) -> np.ndarray:
    """forward_batch output when every map is zero except the projection
    bias, so the normalized output is that bias on every channel."""
    cfg = normalization_config(xs.shape[1], horizon, xs.shape[2])
    params = np.zeros(param_count(cfg))
    projection_bias(params, cfg)[...] = proj_bias
    return forward_batch(xs, params, cfg)


class TestInstanceNormalize:
    def test_hand_case(self):
        centred, mean = centred_rows(np.array([[[1.0], [3.0]]]))
        np.testing.assert_array_equal(centred, [[-1.0], [1.0], [1.0]])
        np.testing.assert_array_equal(mean, [2.0])

    def test_constant_channel_guarded(self):
        centred, _ = centred_rows(np.full((1, 4, 1), 5.0), 1e-5)
        np.testing.assert_array_equal(centred, [[0.0], [0.0], [0.0], [0.0], [1e-5]])

    def test_channels_independent(self):
        # Two windows of two channels; channel 1 is constant in each.
        xs = np.array([[[1.0, 10.0], [3.0, 10.0]], [[0.0, 5.0], [4.0, 5.0]]])
        centred, mean = centred_rows(xs)
        np.testing.assert_array_equal(
            centred,
            [[-1.0, 0.0, -2.0, 0.0], [1.0, 0.0, 2.0, 0.0], [1.0, EXACT_EPS, 2.0, EXACT_EPS]],
        )
        np.testing.assert_array_equal(mean, [2.0, 10.0, 2.0, 5.0])

    def test_round_trip(self, rng):
        # Identity maps pass the normalized window through, so the
        # backcast rows are normalize-then-denormalize of the input.
        xs = rng.normal(size=(2, 16, 3))
        cfg = normalization_config(16, 4, 3)
        out = forward_batch(xs, identity_block_params(cfg), cfg)
        assert np.max(np.abs(out[:, :16] - xs)) < 1e-12


class TestInstanceDenormalize:
    def test_zeros_map_to_mean(self):
        xs = np.array([[[1.0], [3.0]]])
        out = denormalized(xs, 4, 0.0)
        np.testing.assert_array_equal(out, np.full((1, 6, 1), 2.0))

    def test_hand_case(self):
        # Window mean 2, std 1: normalized outputs -1, 1, 0 map to 1, 3, 2.
        out = denormalized(np.array([[[1.0], [3.0]]]), 2, [-1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out[0, :, 0], [1.0, 3.0, 2.0, 2.0])

    def test_longer_output_than_window(self):
        # Denorm applies to backcast + forecast rows alike. Channel means
        # 1 and -1, stds 2 and 3; a normalized output of one everywhere.
        xs = np.array([[[-1.0, -4.0], [3.0, 2.0]]])
        out = denormalized(xs, 4, 1.0)
        np.testing.assert_array_equal(out[0, :, 0], np.full(6, 3.0))
        np.testing.assert_array_equal(out[0, :, 1], np.full(6, 2.0))


class TestConfigValidation:
    def test_divisibility_enforced(self):
        cfg = tiny_config(lookback=10)
        probs = cfg.problems()
        assert any("divisible" in p for p in probs)
        with pytest.raises(ConfigError):
            cfg.ensure_valid()

    def test_all_problems_reported_together(self):
        cfg = tiny_config(lookback=-1, branches=0, transform_kind="bogus")
        probs = cfg.problems()
        assert len(probs) >= 3

    def test_dft_skips_divisibility(self):
        cfg = tiny_config(lookback=10, horizon=3, transform_kind="dft")
        assert cfg.problems() == []

    def test_effective_orders_default(self):
        assert tiny_config(branches=3).effective_orders() == [1, 2, 3]

    def test_effective_orders_dwt(self):
        assert tiny_config(transform_kind="dwt").effective_orders() == [0, 0]

    def test_branch_orders_override(self):
        cfg = tiny_config(branch_orders=[0, 0])
        assert cfg.effective_orders() == [0, 0]

    def test_branch_orders_length_checked(self):
        cfg = tiny_config(branch_orders=[1])
        assert any("branch_orders" in p for p in cfg.problems())


class TestInitParams:
    def test_same_seed_identical(self):
        cfg = tiny_config()
        assert np.array_equal(init_params(cfg, 11), init_params(cfg, 11))

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        a = param_blocks(init_params(cfg, 11), cfg)[-1][1][:-1]
        b = param_blocks(init_params(cfg, 12), cfg)[-1][1][:-1]
        assert not np.array_equal(a, b)

    def test_fan_in_bound(self):
        cfg = tiny_config()
        params = init_params(cfg, 3)
        for _, block in param_blocks(params, cfg):
            bound = 1.0 / np.sqrt(len(block) - 1)
            assert np.all(np.abs(block[:-1]) <= bound)
            np.testing.assert_array_equal(block[-1], 0.0)

    def test_dft_structure(self):
        cfg = tiny_config(transform_kind="dft")
        layout = param_layout(cfg)
        assert [name for name, _, _ in layout] == ["fru_real", "fru_imag", "projection"]
        # Both branches' maps side by side: (m_in, N*m_out).
        assert layout[0][2] == (8 // 2 + 1, 2 * (12 // 2 + 1))
        assert init_params(cfg, 5).shape == (param_count(cfg),)

    def test_draw_order(self):
        # One generator fills the weights branch by branch, that branch's
        # columns of the approx band then of detail levels 1..K (or of real
        # then imag), the projection last, so a seed fixes every byte of
        # every logical weight whatever order the vector stores them in.
        for kind, bands in (
            ("wdt", ["fru_ll", "fru_lh[level1]", "fru_lh[level2]"]),
            ("dft", ["fru_real", "fru_imag"]),
        ):
            cfg = tiny_config(transform_kind=kind)
            rng = np.random.Generator(np.random.PCG64(13))
            blocks = {name: b[:-1] for name, b in param_blocks(init_params(cfg, 13), cfg)}

            def branch(name, n):
                m_out = blocks[name].shape[1] // 2
                return blocks[name][:, n * m_out : (n + 1) * m_out]

            draws = [(name, branch(name, n)) for n in (0, 1) for name in bands]
            for name, weight in draws + [("projection", blocks["projection"])]:
                bound = 1.0 / np.sqrt(weight.shape[0])
                want = rng.uniform(-bound, bound, size=weight.shape)
                assert np.array_equal(weight, want), (kind, name)


class TestForward:
    # Single windows run as batches of one.
    def test_zero_params_outputs_window_mean(self, rng):
        cfg = tiny_config()
        params = np.zeros(param_count(cfg))
        window = rng.normal(size=(8, 2)) + np.array([3.0, -2.0])
        out = forward_batch(window[None], params, cfg)[0]
        want = np.tile(window.mean(axis=0), (12, 1))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_identity_passthrough_backcast(self, rng):
        cfg = tiny_config(branches=1)
        params = identity_block_params(cfg)
        window = rng.normal(size=(8, 2))
        out = forward_batch(window[None], params, cfg)[0]
        # Padded bands only touch rows past L, so the backcast rows
        # reproduce the window; the tail denormalizes the zero rows.
        assert np.max(np.abs(out[:8] - window)) < 1e-9
        want_tail = np.tile(window.mean(axis=0), (4, 1))
        assert np.max(np.abs(out[8:] - want_tail)) < 1e-9

    def test_identity_passthrough_any_order(self, rng):
        # Gains cancel exactly through the sandwich.
        cfg = tiny_config(branches=1, branch_orders=[4])
        params = identity_block_params(cfg)
        window = rng.normal(size=(8, 2))
        out = forward_batch(window[None], params, cfg)[0]
        assert np.max(np.abs(out[:8] - window)) < 1e-9

    def test_channel_permutation_equivariance(self, rng):
        cfg = tiny_config(channels=3)
        params = init_params(cfg, 9)
        xs = rng.normal(size=(2, 8, 3))
        perm = [2, 0, 1]
        np.testing.assert_allclose(
            forward_batch(xs[:, :, perm], params, cfg),
            forward_batch(xs, params, cfg)[:, :, perm],
            atol=1e-12,
        )

    def test_deterministic(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, 2)
        xs = rng.normal(size=(2, 8, 2))
        assert np.array_equal(forward_batch(xs, params, cfg), forward_batch(xs, params, cfg))

    def test_dwt_equals_wdt_with_zero_orders(self, rng):
        cfg_dwt = tiny_config(transform_kind="dwt")
        cfg_wdt0 = tiny_config(transform_kind="wdt", branch_orders=[0, 0])
        params = init_params(cfg_dwt, 21)
        xs = rng.normal(size=(2, 8, 2))
        out_a = forward_batch(xs, params, cfg_dwt)
        out_b = forward_batch(xs, params, cfg_wdt0)
        assert np.max(np.abs(out_a - out_b)) < 1e-12

    def test_dft_forward_shapes(self, rng):
        cfg = tiny_config(transform_kind="dft", lookback=10, horizon=3)
        params = init_params(cfg, 4)
        out = forward_batch(rng.normal(size=(1, 10, 2)), params, cfg)
        assert out.shape == (1, 13, 2)
        assert np.all(np.isfinite(out))

    def test_batch_matches_single(self, rng):
        cfg = tiny_config()
        params = init_params(cfg, 8)
        xs = rng.normal(size=(5, 8, 2))
        batch_out = forward_batch(xs, params, cfg)
        for i in range(5):
            np.testing.assert_allclose(
                batch_out[i], forward_batch(xs[i : i + 1], params, cfg)[0], atol=1e-12
            )

    def test_wrong_window_shape_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        for shape in ((1, 9, 2), (8, 2)):
            with pytest.raises(DataError):
                forward_batch(np.zeros(shape), params, cfg)


@pytest.mark.parametrize("kind", ["wdt", "dwt", "dft"])
def test_model_never_writes_into_params(kind):
    # The forward scales a copy of each band's bias row (by 1/g on the wdt
    # detail bands), never the stored row: every path that reads the
    # parameters leaves their bits as they were.
    cfg = tiny_config(transform_kind=kind)
    params = init_params(cfg, 4)
    gen = np.random.default_rng(5)
    for _, block in param_blocks(params, cfg):
        block[-1] = gen.standard_normal(block.shape[1])
    bits = params.view(np.uint64).copy()
    spans = gen.standard_normal((3, cfg.lookback + cfg.horizon, cfg.channels))
    calls = {
        "forward_batch": lambda: forward_batch(spans[:, : cfg.lookback], params, cfg),
        "gradient_batch": lambda: gradient_batch(params, spans, cfg),
        "compile_operator": lambda: compile_operator(params, cfg),
        "evaluate_loss": lambda: evaluate_loss(params, spans, cfg),
    }
    for name, call in calls.items():
        call()
        assert np.array_equal(params.view(np.uint64), bits), name


class TestValidateParams:
    # The vector carries no shapes: validate_params checks its type,
    # length and values. tests/test_cli.py checks that load_checkpoint
    # rejects a stored vector of the wrong length.
    def test_accepts_fresh_params(self):
        cfg = tiny_config()
        validate_params(init_params(cfg, 1), cfg)
        with pytest.raises(ConfigError, match="float64"):
            validate_params(init_params(cfg, 1).astype(np.float32), cfg)

    def test_rejects_wrong_projection_shape(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError, match="does not match"):
            validate_params(init_params(tiny_config(horizon=8), 1), cfg)

    def test_rejects_missing_branch(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            validate_params(init_params(tiny_config(branches=1), 1), cfg)

    def test_rejects_nonfinite(self):
        cfg = tiny_config()
        params = init_params(cfg, 1)
        # Branch 2's half of the approx band's weight.
        block = param_blocks(params, cfg)[0][1]
        block[0, block.shape[1] // 2] = np.nan
        with pytest.raises(ConfigError, match=r"fru_ll contains non-finite"):
            validate_params(params, cfg)

    def test_rejects_mixed_kind_blocks(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            validate_params(init_params(tiny_config(transform_kind="dft"), 1), cfg)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, 33)
        path = str(tmp_path / "model.bin")
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert np.array_equal(loaded, params)

    def test_save_is_deterministic(self, tmp_path):
        cfg = tiny_config()
        params = init_params(cfg, 33)
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(params, cfg, str(p1))
        save_checkpoint(params, cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_dft_round_trip(self, tmp_path):
        cfg = tiny_config(transform_kind="dft")
        params = init_params(cfg, 5)
        path = str(tmp_path / "model.bin")
        save_checkpoint(params, cfg, path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded, params)

    def test_wrong_version_rejected(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "model.bin"
        save_checkpoint(init_params(cfg, 1), cfg, str(path))
        raw = path.read_bytes().replace(
            f'"version": {CHECKPOINT_VERSION}'.encode(), b'"version": 99', 1
        )
        assert raw.startswith(b'{"version": 99, ')
        path.write_bytes(raw)
        with pytest.raises(DataError, match="gives version 99"):
            load_checkpoint(str(path))

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_text("not json at all")
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def test_nul_in_path_cannot_be_opened(self):
        # open() rejects the NUL with ValueError, which is not a parse error.
        with pytest.raises(DataError, match="cannot open checkpoint"):
            load_checkpoint("x\0y.bin")


class TestParamHelpers:
    def test_named_blocks_cover_everything_once(self):
        cfg = tiny_config(branches=3, levels=2)
        layout = param_layout(cfg)
        names = [name for name, _, _ in layout]
        assert len(names) == len(set(names))
        # One block per band (approx, 2 detail levels) + projection.
        assert names == ["fru_ll", "fru_lh[level1]", "fru_lh[level2]", "projection"]
        # Each block is its weight then its bias, the blocks end to end.
        offset = 0
        for _, start, (m_in, m_out) in layout:
            assert start == offset
            offset += (m_in + 1) * m_out
        assert offset == param_count(cfg)

    @pytest.mark.parametrize(
        "kind, shapes",
        [
            ("wdt", [(42, 54), (168, 216), (84, 108), (42, 54)]),
            ("dft", [(169, 217)]),
        ],
    )
    def test_layout_shapes_at_the_etth1_shape(self, kind, shapes):
        # L=336, tau=96, K=3: wavelet bands are L/2^l -> (L+tau)/2^l with
        # LL_K at level K, and dft maps the half-spectra L/2+1 -> (L+tau)/2+1.
        cfg = ModelConfig(
            lookback=336, horizon=96, channels=7, branches=1, levels=3, transform_kind=kind
        )
        got = [shape for _, _, shape in param_layout(cfg)]
        bands = shapes if kind == "wdt" else shapes * 2
        assert got == bands + [(432, 432)]

    def test_block_views_write_the_vector(self):
        cfg = tiny_config()
        vec = np.zeros(param_count(cfg))
        for i, (_, block) in enumerate(param_blocks(vec, cfg), start=1):
            block[:-1] = i
            block[-1] = -i
        np.testing.assert_array_equal(np.unique(np.abs(vec)), np.arange(1, 5))
        _, start, (m_in, m_out) = param_layout(cfg)[1]
        np.testing.assert_array_equal(vec[start : start + m_in * m_out], 2.0)
        np.testing.assert_array_equal(vec[start + m_in * m_out : start + (m_in + 1) * m_out], -2.0)

    @pytest.mark.parametrize("kind", ["wdt", "dft"])
    def test_blocks_are_the_stored_views(self, kind):
        # Each block is [W; b] as stored, its weight rows then its bias row.
        cfg = tiny_config(transform_kind=kind, branches=3)
        params = init_params(cfg, 3)
        blocks = param_blocks(params, cfg)
        assert len(blocks) == len(param_layout(cfg))
        for (name, offset, (m_in, m_out)), (_, block) in zip(param_layout(cfg), blocks):
            assert block.shape == (m_in + 1, m_out), name
            assert np.shares_memory(block, params), name
            stored = params[offset : offset + (m_in + 1) * m_out]
            assert np.array_equal(block.ravel(), stored), name

    def test_wrong_length_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError, match="does not match"):
            param_blocks(np.zeros(param_count(cfg) + 1), cfg)
