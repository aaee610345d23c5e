"""The checkpoint file format, pinned by files an earlier writer made.

tests/checkpoints/wdt.bin and dft.bin were first written, as wdt.json
and dft.json, by save_checkpoint as it stood before the parameters
became one vector (commit 11c4c93), at the gradcheck shape (L=8, tau=4,
C=2, N=2, K=2, seed 2) with standard-normal biases, so a bias or block
placed at the wrong offset shows. When format version 2 replaced version
1, they were converted by reading them with the version 1 loader (commit
ecdb0c3) and writing them with the version 2 writer. When version 3
stored one block per band, each band's branch maps side by side, they
were converted the same way: read with the version 2 loader (commit
02b0a4d), each branch's block copied into its columns of the band's
block, and written with the version 3 writer. Next to each,
<kind>_forward.json holds a seeded (3, L, C) batch and forward_batch's
output on it. The output the original code recorded survived both
conversions bit for bit, which showed them exact, and is kept as
stack_normalized_out.

When version 4 replaced the JSON document, its vector in base64, with
one JSON header line followed by the vector's raw bytes, wdt.json and
dft.json became wdt.bin and dft.bin: read with the version 3 loader
(commit 8921294) and written with the version 4 writer. The body of
each is the bytes its base64 held, and every record below reproduced
bit for bit after the conversion, under SkylakeX and under Haswell,
which showed it exact. The records themselves were not touched.

The output was re-recorded as out when forward_batch and apply_operator
came to share one instance normalization (model._normalize_rows, now
_centre_rows, after commit 863b834). It used to normalize the strided
(B, L, C) stack; it now reduces contiguous channel rows, which rounds
differently, so some outputs moved in their last bits. The checkpoints
themselves were not touched. out must stay within 1e-12 relative of stack_normalized_out,
entry by entry, so the re-record cannot hide a defect; forward_batch
must reproduce out bit for bit.

Two more records per kind pin the other paths through the branch map,
written by the code of commit 1e3ab09 on each checkpoint's parameters.
<kind>_gradient.json holds a seeded (3, L+tau, C) batch of window spans
under spans, and gradient_batch's gradient vector and loss on it under
grads and loss. <kind>_operator.json holds compile_operator's weight
(L, L+tau) and bias (L+tau,), the rows of the (L+1, L+tau) array it now
returns. Python's JSON floats round-trip every float64, and the tests
compare the uint64 bit patterns, so a sign of zero that moved shows too.

All three were re-recorded when the branch path moved into the band
domain (after commit 43400e3): _normalized_map carries the projection
back through the synthesis and applies one band-domain operator to the
analysed rows, and its adjoint forms the band and projection gradients from
that operator's gradient. Every product sums in another order, so the
values moved in their last bits. The values the branch path recorded
before are kept under branch_path_out, branch_path_grads and
branch_path_loss, and branch_path_weight and branch_path_bias. The new
forward output must stay within 1e-12 relative of branch_path_out, entry
by entry, and each gradient block and the operator's weight and bias
within 1e-12 of the largest entry of the old block, so the re-record
cannot hide a defect; the code must reproduce the new values bit for
bit.

The bits of a GEMM depend on the OpenBLAS kernel that runs it
(blas_kernel.py), so each record keeps its pinned values under
recorded, keyed by kernel name: out; grads and loss; weight and bias.
The values above were recorded under SkylakeX. The Haswell values were
added under OPENBLAS_CORETYPE=Haswell by code that reproduces every
SkylakeX value bit for bit (after commit 32bce3c); Zen runs the Haswell
kernel. A kernel whose entry is another kernel's name gave that kernel's
bits: every dft value is the same under Haswell as under SkylakeX. A pin
test reads the recording of the running kernel and fails, naming the
kernel, when there is none; the bounds above hold for every recording.

Both kernels' values were re-recorded when the std became an input
column of the branch path (after commit 8a35d08): _normalized_map takes
the centred rows [x - mean, std] of _centre_rows and is linear in them,
so forward_batch no longer divides the rows by the std and multiplies
the output back, gradient_batch no longer scales the output gradient by
it, and compile_operator is the map of the identity rows. The products
meet other operands, so the values moved in their last bits again: the
forward output by up to 2.4e-14 relative of branch_path_out, entry by
entry, and the gradients and the operator by up to 3e-16 and 1.1e-15 of
their block maxima; the loss kept its bits. stack_normalized_out and the
branch_path_* values keep their bounds, and every dft value is again the
same under Haswell as under SkylakeX.

Both kernels' forward and gradient values were re-recorded when
_centre_rows came to write the centred lookbacks time-major, one
(L+1, B*C) array with a column per channel row, after commit eba6a20:
the mean is summed in blocks down the columns, and forward_batch and
gradient_batch form V.T @ xb.T and the gradient xb.T @ dproj.T in that
orientation. The values moved in their last bits again, against the
recording before: the forward output by up to 2.4e-15 (wdt) and 7.9e-16
(dft) relative, entry by entry, the gradients by up to 3.3e-16 (wdt)
and 3.0e-16 (dft) of their block maxima, and the dft loss by 1.3e-16
relative. The wdt loss and both operators kept their bits, so the
operator records were not rewritten. stack_normalized_out and the
branch_path_* values keep their bounds, and every dft value is again the
same under Haswell as under SkylakeX.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wavets.model import (
    compile_operator,
    forward_batch,
    load_checkpoint,
    param_blocks,
    save_checkpoint,
)
from wavets.train import gradient_batch

from blas_kernel import openblas_corename
from helpers import same_bits

CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"
KINDS = ("wdt", "dft")


@pytest.mark.parametrize("kind", KINDS)
def test_load_then_save_is_byte_identical(tmp_path, kind):
    pinned = CHECKPOINTS / f"{kind}.bin"
    params, config = load_checkpoint(str(pinned))
    assert config.transform_kind == kind
    again = tmp_path / "again.bin"
    save_checkpoint(params, config, str(again))
    assert again.read_bytes() == pinned.read_bytes()


def record(kind: str, what: str) -> dict:
    return json.loads((CHECKPOINTS / f"{kind}_{what}.json").read_text())


def recordings(pinned: dict) -> list[dict]:
    """Every kernel's own recorded values in a record."""
    return [values for values in pinned["recorded"].values() if isinstance(values, dict)]


def running_kernel_recording(pinned: dict) -> dict:
    """The recorded values of the running OpenBLAS kernel."""
    by_kernel = pinned["recorded"]
    kernel = openblas_corename()
    if kernel not in by_kernel:
        pytest.fail(
            f"no values recorded for OpenBLAS kernel {kernel}; "
            f"recorded kernels: {', '.join(by_kernel)}"
        )
    values = by_kernel[kernel]
    return by_kernel[values] if isinstance(values, str) else values


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_forecast_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.bin"))
    pinned = record(kind, "forward")
    out = forward_batch(np.array(pinned["xs"]), params, config)
    assert same_bits(out, running_kernel_recording(pinned)["out"])


@pytest.mark.parametrize("kind", KINDS)
def test_rerecorded_forecast_within_rounding_of_the_original(kind):
    pinned = record(kind, "forward")
    original = np.array(pinned["stack_normalized_out"])
    for values in recordings(pinned):
        np.testing.assert_allclose(np.array(values["out"]), original, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", KINDS)
def test_rerecorded_forecast_within_rounding_of_the_branch_path(kind):
    pinned = record(kind, "forward")
    original = np.array(pinned["branch_path_out"])
    for values in recordings(pinned):
        np.testing.assert_allclose(np.array(values["out"]), original, rtol=1e-12, atol=0)


def assert_within_block_max(got, want, label: str) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, label
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), label


@pytest.mark.parametrize("kind", KINDS)
def test_rerecorded_gradient_within_rounding_of_the_branch_path(kind):
    _, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.bin"))
    pinned = record(kind, "gradient")
    old = param_blocks(np.array(pinned["branch_path_grads"]), config)
    for values in recordings(pinned):
        new = param_blocks(np.array(values["grads"]), config)
        for (name, block), (_, old_block) in zip(new, old):
            assert_within_block_max(block, old_block, name)
        assert values["loss"] == pytest.approx(pinned["branch_path_loss"], rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", KINDS)
def test_rerecorded_operator_within_rounding_of_the_branch_path(kind):
    pinned = record(kind, "operator")
    for values in recordings(pinned):
        assert_within_block_max(values["weight"], pinned["branch_path_weight"], "weight")
        assert_within_block_max(values["bias"], pinned["branch_path_bias"], "bias")


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_gradient_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.bin"))
    pinned = record(kind, "gradient")
    grads, loss = gradient_batch(params, np.array(pinned["spans"]), config)
    values = running_kernel_recording(pinned)
    assert same_bits(grads, values["grads"])
    assert same_bits(loss, values["loss"])


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_operator_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.bin"))
    pinned = record(kind, "operator")
    operator = compile_operator(params, config)
    values = running_kernel_recording(pinned)
    assert same_bits(operator[:-1], values["weight"])
    assert same_bits(operator[-1], values["bias"])
