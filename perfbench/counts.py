"""Operation counts computed from the model shape, not measured.

Bytes moved count each GEMM operand read once and the result written once
at 8 bytes per float64; cache misses are ignored, so they are a lower bound.
"""

from __future__ import annotations

from inputs import Shape

COMPUTED_UNITS = {
    "computed.param_count_wdt": "count",
    "computed.param_count_dft": "count",
    "computed.train_step_gemm_gflop": "GFLOP",
    "computed.train_step_gemm_mb": "MB",
    "computed.forecast_window_gemm_mflop": "MFLOP",
    "computed.forecast_window_gemm_mb": "MB",
}


def affine_blocks(shape: Shape, kind: str) -> list[tuple[int, int]]:
    """(m_in, m_out) of every learned map: branch bands first, projection last."""
    total = shape.lookback + shape.horizon
    if kind == "dft":
        per_branch = [(shape.lookback // 2 + 1, total // 2 + 1)] * 2
    else:
        k = shape.levels
        per_branch = [(shape.lookback >> k, total >> k)] + [
            (shape.lookback >> lv, total >> lv) for lv in range(1, k + 1)
        ]
    return per_branch * shape.branches + [(shape.branches * total, total)]


def param_count(shape: Shape, kind: str) -> int:
    return sum(m * n + n for m, n in affine_blocks(shape, kind))


def _gemm(rows: int, inner: int, cols: int) -> tuple[int, int]:
    return 2 * rows * inner * cols, 8 * (rows * inner + inner * cols + rows * cols)


def _sum(gemms: list[tuple[int, int, int]]) -> tuple[int, int]:
    flop = moved = 0
    for dims in gemms:
        f, b = _gemm(*dims)
        flop += f
        moved += b
    return flop, moved


def forward_gemms(shape: Shape, kind: str, windows: int) -> list[tuple[int, int, int]]:
    """Every channel of every window is one row through each map."""
    rows = windows * shape.channels
    return [(rows, m, n) for m, n in affine_blocks(shape, kind)]


def train_step_gemms(shape: Shape, kind: str, windows: int) -> list[tuple[int, int, int]]:
    """Forward, one weight-gradient product per map, and the input gradient
    of the projection (band inputs are data, so they need none)."""
    rows = windows * shape.channels
    blocks = affine_blocks(shape, kind)
    weight_grads = [(m, rows, n) for m, n in blocks]
    m_proj, n_proj = blocks[-1]
    return forward_gemms(shape, kind, windows) + weight_grads + [(rows, n_proj, m_proj)]


def computed_counts(shape: Shape) -> dict[str, float]:
    step_flop, step_bytes = _sum(train_step_gemms(shape, "wdt", shape.batch))
    win_flop, win_bytes = _sum(forward_gemms(shape, "dft", 1))
    return {
        "computed.param_count_wdt": param_count(shape, "wdt"),
        "computed.param_count_dft": param_count(shape, "dft"),
        "computed.train_step_gemm_gflop": step_flop / 1e9,
        "computed.train_step_gemm_mb": step_bytes / 1e6,
        "computed.forecast_window_gemm_mflop": win_flop / 1e6,
        "computed.forecast_window_gemm_mb": win_bytes / 1e6,
    }
