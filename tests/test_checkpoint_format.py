"""The checkpoint file format, pinned by files an earlier writer made.

tests/checkpoints/wdt.json and dft.json were first written by
save_checkpoint as it stood before the parameters became one vector
(commit 11c4c93), at the gradcheck shape (L=8, tau=4, C=2, N=2, K=2,
seed 2) with standard-normal biases, so a bias or block placed at the
wrong offset shows. When format version 2 replaced version 1, they were
converted by reading them with the version 1 loader (commit ecdb0c3) and
writing them with the version 2 writer. When version 3 stored one block
per band, each band's branch maps side by side, they were converted the
same way: read with the version 2 loader (commit 02b0a4d), each branch's
block copied into its columns of the band's block, and written with the
version 3 writer. Next to each, <kind>_forward.json holds a seeded
(3, L, C) batch and forward_batch's output on it. The output the original
code recorded survived both conversions bit for bit, which showed them
exact, and is kept as stack_normalized_out.

The output was re-recorded as out when forward_batch and apply_operator
came to share one instance normalization (model._normalize_rows, after
commit 863b834). It used to normalize the strided (B, L, C) stack; it
now reduces contiguous channel rows, which rounds differently, so some
outputs moved in their last bits. The checkpoints themselves were not
touched. out must stay within 1e-12 relative of stack_normalized_out,
entry by entry, so the re-record cannot hide a defect; forward_batch
must reproduce out bit for bit.

Two more records per kind pin the other paths through the branch map,
written by the code of commit 1e3ab09 on each checkpoint's parameters.
<kind>_gradient.json holds a seeded (3, L+tau, C) batch of window spans
under spans, and gradient_batch's gradient vector and loss on it under
grads and loss. <kind>_operator.json holds compile_operator's weight
(L, L+tau) and bias (L+tau,). Python's JSON floats round-trip every
float64, and the tests compare the uint64 bit patterns, so a sign of
zero that moved shows too.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wavets.model import compile_operator, forward_batch, load_checkpoint, save_checkpoint
from wavets.train import gradient_batch

CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"
KINDS = ("wdt", "dft")


@pytest.mark.parametrize("kind", KINDS)
def test_load_then_save_is_byte_identical(tmp_path, kind):
    pinned = CHECKPOINTS / f"{kind}.json"
    params, config = load_checkpoint(str(pinned))
    assert config.transform_kind == kind
    again = tmp_path / "again.json"
    save_checkpoint(params, config, str(again))
    assert again.read_bytes() == pinned.read_bytes()


def record(kind: str, what: str) -> dict:
    return json.loads((CHECKPOINTS / f"{kind}_{what}.json").read_text())


def assert_same_bits(got, want) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_forecast_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.json"))
    pinned = record(kind, "forward")
    out = forward_batch(np.array(pinned["xs"]), params, config)
    assert_same_bits(out, pinned["out"])


@pytest.mark.parametrize("kind", KINDS)
def test_rerecorded_forecast_within_rounding_of_the_original(kind):
    pinned = record(kind, "forward")
    original = np.array(pinned["stack_normalized_out"])
    np.testing.assert_allclose(np.array(pinned["out"]), original, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_gradient_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.json"))
    pinned = record(kind, "gradient")
    grads, loss = gradient_batch(params, np.array(pinned["spans"]), config)
    assert_same_bits(grads, pinned["grads"])
    assert_same_bits(loss, pinned["loss"])


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_operator_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.json"))
    pinned = record(kind, "operator")
    weight, bias = compile_operator(params, config)
    assert_same_bits(weight, pinned["weight"])
    assert_same_bits(bias, pinned["bias"])
