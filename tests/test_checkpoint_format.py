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
"""

import json
from pathlib import Path

import numpy as np
import pytest

from wavets.model import forward_batch, load_checkpoint, save_checkpoint

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


def forward_record(kind: str) -> dict:
    return json.loads((CHECKPOINTS / f"{kind}_forward.json").read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_forecast_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.json"))
    record = forward_record(kind)
    out = forward_batch(np.array(record["xs"]), params, config)
    assert np.array_equal(out, np.array(record["out"]))


@pytest.mark.parametrize("kind", KINDS)
def test_rerecorded_forecast_within_rounding_of_the_original(kind):
    record = forward_record(kind)
    original = np.array(record["stack_normalized_out"])
    np.testing.assert_allclose(np.array(record["out"]), original, rtol=1e-12, atol=0)
