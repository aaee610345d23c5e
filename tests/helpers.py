"""Small helpers that several test modules share: the tiny model config,
seeded parameters with nonzero biases, a relative error, a bit-for-bit
comparison, a traced memory peak, gradient_check's negative control, and
the pinned checkpoints of tests/checkpoints taken apart or laid out as an
older writer laid them out."""

import base64
import json
import tracemalloc
from pathlib import Path

import numpy as np

import wavets.train
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


def traced_peak(call) -> int:
    """The peak of the bytes tracemalloc traces while call() runs, counted
    from zero at the call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def corrupt_projection_gradient(monkeypatch) -> None:
    """Make gradient_check see a wrong gradient: replace
    wavets.train.gradient_batch, the name it calls, with one that adds 1e-3
    to the projection block's weight gradient."""
    exact = wavets.train.gradient_batch

    def corrupted(params, spans, config):
        grads, loss = exact(params, spans, config)
        dict(param_blocks(grads, config))["projection"][:-1] += 1e-3
        return grads, loss

    monkeypatch.setattr(wavets.train, "gradient_batch", corrupted)


CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"


def pinned_checkpoint(kind: str) -> tuple[dict, bytes]:
    """The header object and the body of tests/checkpoints/<kind>.bin."""
    header, body = (CHECKPOINTS / f"{kind}.bin").read_bytes().split(b"\n", 1)
    return json.loads(header), body


def older_checkpoint(version: int) -> bytes:
    """The pinned wdt checkpoint as a version 1, 2 or 3 writer laid it out:
    one JSON document indented by one space, so its first line is "{", with
    the vector in base64 as version 3 stored it. The version 3 file is
    byte for byte the one tests/checkpoints/wdt.json held."""
    header, body = pinned_checkpoint("wdt")
    params = base64.b64encode(body).decode()
    doc = {"version": version, "config": header["config"], "params": params}
    return (json.dumps(doc, indent=1) + "\n").encode()
