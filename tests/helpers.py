"""Small helpers that several test modules share: the tiny model config,
seeded parameters with nonzero biases, a relative error and a bit-for-bit
comparison."""

import numpy as np

from wavets.model import ModelConfig, init_params, param_blocks


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        lookback=8, horizon=4, channels=2, branches=2, levels=2,
        transform_kind="wdt", std_epsilon=1e-5, seed=7,
    )
    base.update(overrides)
    return ModelConfig(**base)


def params_with_biases(cfg: ModelConfig, gen: np.random.Generator) -> np.ndarray:
    """The seeded init with every bias row drawn from gen, standard normal,
    so a dropped or misplaced bias term shows."""
    params = init_params(cfg, cfg.seed)
    for _, block in param_blocks(params, cfg):
        block[-1] = gen.normal(size=block.shape[1])
    return params


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference relative to want's largest entry."""
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
