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
(3, L, C) batch and the original code's forward_batch output on it; both
conversions left it untouched, so reproducing it bit for bit shows they
are exact.
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


@pytest.mark.parametrize("kind", KINDS)
def test_recorded_forecast_reproduced_bit_for_bit(kind):
    params, config = load_checkpoint(str(CHECKPOINTS / f"{kind}.json"))
    record = json.loads((CHECKPOINTS / f"{kind}_forward.json").read_text())
    out = forward_batch(np.array(record["xs"]), params, config)
    assert np.array_equal(out, np.array(record["out"]))
