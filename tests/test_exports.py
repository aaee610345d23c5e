"""The transform export files, pinned byte for byte.

tests/exports/SHA256SUMS holds the digests of the files that
`wavets scalogram --csv data/synthetic_tiny.csv --channel s1 --levels 3
--order n` wrote for n = 0, 1, 2 before the writers streamed one band at a
time (commit 192e14c), one output directory `order<n>` per order. The
same digests hold for a CRLF copy of that file and a copy with every
cell quoted.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from wavets import DataError
from wavets.cli import main
from wavets.wavelet import make_filterbank
from wavets.wdt import (
    DerivativePyramid,
    wdt_forward,
    write_coefficients_csv,
    write_scalogram_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SUMS = ROOT / "tests" / "exports" / "SHA256SUMS"
TINY_CSV = ROOT / "data" / "synthetic_tiny.csv"


def pinned_digests() -> dict[str, str]:
    pairs = (line.split("  ", 1) for line in SUMS.read_text().splitlines())
    return {name: digest for digest, name in pairs}


def test_pinned_list_names_every_export():
    assert sorted(pinned_digests()) == [
        f"order{n}/{name}.csv" for n in (0, 1, 2) for name in ("coefficients", "scalogram")
    ]


# The bundled file takes the np.loadtxt fast path, and so does a CRLF
# copy; a copy with every cell quoted is read through csv.reader. Each
# copy's lines are rewritten as below, and each must give the same bytes.
COPIES = {
    "crlf": lambda line: line + "\r",
    "quoted": lambda line: ",".join(f'"{cell}"' for cell in line.split(",")),
}


@pytest.mark.parametrize(
    "copy, order",
    [pytest.param(None, order, id=str(order)) for order in (0, 1, 2)]
    + [pytest.param(copy, order, id=f"{copy}-{order}") for copy in COPIES for order in (0, 1, 2)],
)
def test_cli_exports_match_pinned_digests(tmp_path, capsys, copy, order):
    csv = TINY_CSV
    if copy:
        csv = tmp_path / f"{copy}.csv"
        lines = TINY_CSV.read_text().splitlines()
        csv.write_bytes("".join(COPIES[copy](line) + "\n" for line in lines).encode())
    rc = main(
        [
            "scalogram",
            "--csv",
            str(csv),
            "--channel",
            "s1",
            "--levels",
            "3",
            "--order",
            str(order),
            "--out",
            str(tmp_path / f"order{order}"),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    for name, digest in pinned_digests().items():
        if name.startswith(f"order{order}/"):
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name


def test_make_synthetic_regenerates_the_input(tmp_path, monkeypatch, capsys):
    # The pinned exports are of data/synthetic_tiny.csv, which
    # scripts/make_synthetic.py writes; here it writes under tmp_path.
    spec = importlib.util.spec_from_file_location(
        "make_synthetic", ROOT / "scripts" / "make_synthetic.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path / "synthetic_tiny.csv")
    script.main()
    capsys.readouterr()
    assert script.OUT.read_bytes() == TINY_CSV.read_bytes()


def exports(tmp_path, pyramid) -> tuple[str, str]:
    coeffs, grid = tmp_path / "coefficients.csv", tmp_path / "scalogram.csv"
    write_coefficients_csv(pyramid, str(coeffs))
    write_scalogram_csv(pyramid, str(grid))
    return coeffs.read_text(), grid.read_text()


def test_all_zero_series_exports_zeros(tmp_path):
    # Peak 0: the grid stays zero; the gain -2 or -4 turns each zero detail
    # into -0.0, which the coefficient file keeps.
    pyr = wdt_forward(np.zeros(8), make_filterbank("db1"), 2, 1)
    coeffs, grid = exports(tmp_path, pyr)
    assert coeffs == (
        "band,index,value,gain\n"
        "LL2,0,0.0,1.0\nLL2,1,0.0,1.0\n"
        "LH2,0,-0.0,-2.0\nLH2,1,-0.0,-2.0\n"
        "LH1,0,-0.0,-4.0\nLH1,1,-0.0,-4.0\nLH1,2,-0.0,-4.0\nLH1,3,-0.0,-4.0\n"
    )
    assert grid == (
        "band,0,1,2,3,4,5,6,7\n"
        "LL2,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
        "LH2,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
        "LH1,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
    )


def test_constant_series_exports_one_lit_band(tmp_path):
    pyr = wdt_forward(np.full(8, 2.5), make_filterbank("db1"), 2, 2)
    coeffs, grid = exports(tmp_path, pyr)
    assert coeffs == (
        "band,index,value,gain\n"
        "LL2,0,4.999999999999999,1.0\nLL2,1,4.999999999999999,1.0\n"
        "LH2,0,0.0,4.0\nLH2,1,0.0,4.0\n"
        "LH1,0,0.0,16.0\nLH1,1,0.0,16.0\nLH1,2,0.0,16.0\nLH1,3,0.0,16.0\n"
    )
    assert grid == (
        "band,0,1,2,3,4,5,6,7\n"
        "LL2,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0\n"
        "LH2,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
        "LH1,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
    )


@pytest.mark.parametrize(
    "export",
    [
        lambda pyr: write_scalogram_csv(pyr, "unused.csv"),
        lambda pyr: write_coefficients_csv(pyr, "unused.csv"),
    ],
    ids=["write_scalogram_csv", "write_coefficients_csv"],
)
def test_pyramid_of_a_batch_rejected(tmp_path, monkeypatch, export):
    # A (2, 8) input would otherwise export its two windows side by side.
    monkeypatch.chdir(tmp_path)
    pyr = wdt_forward(np.arange(16.0).reshape(2, 8), make_filterbank("db1"), 2, 1)
    with pytest.raises(DataError, match=r"band LL2 has shape \(2, 2\)"):
        export(pyr)
    assert not (tmp_path / "unused.csv").exists()


def test_coefficient_export_validates_the_pyramid(tmp_path):
    bands = wdt_forward(np.arange(8.0), make_filterbank("db1"), 2, 1).bands
    bad = DerivativePyramid(order=1, bands=[bands[0], bands[1], bands[2][:1]])
    with pytest.raises(DataError, match="band LH2 has length 1, but LL2 of length 2 needs 2"):
        write_coefficients_csv(bad, str(tmp_path / "c.csv"))
    assert not (tmp_path / "c.csv").exists()
