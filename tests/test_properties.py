"""Property tests over random valid shapes and malformed inputs, drawn by
Hypothesis.

Examples are derandomized, so every run draws the same cases and the
suite stays deterministic; the draws still cover shapes and inputs no
hand-written case names. The module is skipped where Hypothesis is not
installed.
"""

import copy
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import reference  # noqa: E402
import wavets.data  # noqa: E402
from helpers import CHECKPOINTS, same_bits  # noqa: E402
from wavets.cli import main  # noqa: E402
from wavets.config import TRANSFORM_KINDS  # noqa: E402
from wavets.data import load_csv  # noqa: E402
from wavets.errors import DataError  # noqa: E402
from wavets.model import (  # noqa: E402
    ModelConfig,
    apply_operator,
    compile_operator,
    forward_batch,
    init_params,
    load_checkpoint,
    param_blocks,
    param_count,
    save_checkpoint,
)
from wavets.wavelet import SUPPORTED_WAVELETS, idwt_multi, make_filterbank  # noqa: E402
from wavets.wdt import (  # noqa: E402
    energy_report,
    level_gains,
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
    for _, block in param_blocks(params, cfg):
        block[-1] = gen.standard_normal(block.shape[1])
    xs = 2.0 * gen.standard_normal((batch, cfg.lookback, cfg.channels)) - 1.0
    before = xs.copy()
    got = apply_operator(xs, compile_operator(params, cfg), cfg)
    assert np.array_equal(xs, before)
    want = forward_batch(xs, params, cfg)
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
    # Each band's |coefficients| over the pyramid's peak, each held for the
    # samples it covers.
    amps = [np.abs(band) for band in [pyr.bands[0]] + pyr.bands[:0:-1]]
    peak = max(amp.max() for amp in amps)
    grid = [np.repeat(amp / peak if peak else amp, pyr.length // amp.size) for amp in amps]
    assert grid_lines[0] == "band," + ",".join(str(i) for i in range(signal.shape[0]))
    rows = [line.split(",") for line in grid_lines[1:]]
    assert [row[0] for row in rows] == [f"LL{levels}"] + [f"LH{lv}" for lv in range(levels, 0, -1)]
    assert same_bits([[float(v) for v in row[1:]] for row in rows], grid)

    assert coeff_lines[0] == "band,index,value,gain"
    records = [line.split(",") for line in coeff_lines[1:]]
    bands = [(f"LL{levels}", pyr.bands[0], 1.0)] + [
        (f"LH{lv}", pyr.bands[lv], pyr.gains[lv - 1]) for lv in range(levels, 0, -1)
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


@PROPERTY_SETTINGS
@given(
    levels=st.integers(1, 6),
    blocks=st.integers(1, 4),
    order=st.integers(0, 4),
    data=st.data(),
)
def test_a_band_one_sample_off_is_a_data_error(levels, blocks, order, data):
    # The length of each band is checked against the others, never stored:
    # one band a sample too long or too short must stop every consumer with
    # DataError (not an IndexError or a ValueError) before a file opens.
    fb = make_filterbank("db1")
    signal = data.draw(
        arrays(np.float64, blocks << levels, elements=st.floats(-100.0, 100.0, allow_nan=False))
    )
    pyr = wdt_forward(signal, fb, levels, order)
    assert pyr.gains == level_gains(levels, order)
    idx = data.draw(st.integers(0, levels), label="band")
    band = pyr.bands[idx]
    pyr.bands[idx] = band[:-1] if data.draw(st.booleans(), label="shorter") else np.append(band, 0.0)
    consumers = {
        "idwt_multi": lambda path: idwt_multi(pyr.bands, fb),
        "wdt_inverse": lambda path: wdt_inverse(pyr, fb),
        "energy_report": lambda path: energy_report(signal, pyr),
        "write_coefficients_csv": lambda path: write_coefficients_csv(pyr, path),
        "write_scalogram_csv": lambda path: write_scalogram_csv(pyr, path),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, consume in consumers.items():
            path = Path(tmp) / f"{name}.csv"
            with pytest.raises(DataError):
                consume(str(path))
            assert not path.exists(), name


# ---------------------------------------------------------------------------
# the run contract: a malformed config exits 2, a malformed CSV exits 3


def run_cli(argv: list[str]) -> tuple[int, str]:
    """main()'s exit code and stderr. An exception that escapes main, which
    would end the command in a traceback, fails the test instead."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


# Every field set explicitly, so that each can be the one that breaks.
VALID_CONFIG = {
    "model": {
        "lookback": 16, "horizon": 8, "channels": 1, "branches": 2, "levels": 2,
        "transform_kind": "wdt", "std_epsilon": 1e-5, "seed": 0, "branch_orders": [1, 2],
    },
    "train": {
        "learning_rate": 0.01, "batch_size": 16, "max_epochs": 1, "patience": 1,
        "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_epsilon": 1e-8, "grad_clip": 1.0,
        "seed": 0,
    },
    "data": {
        "csv": "series.csv",
        "split": {"kind": "ratio", "ratios": [0.7, 0.15, 0.15]},
        "stride": 2,
        "standardize": True,
    },
    "metrics": {"mode": "long", "period": 1},
}


def train_on(doc: dict) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        rows = "".join(f"{math.sin(t / 5.0)!r}\n" for t in range(200))
        (Path(tmp) / "series.csv").write_text("a\n" + rows)
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps(doc))
        return run_cli(["train", "--config", str(config), "--out", str(Path(tmp) / "o")])


def fractions():
    return st.floats(0.1, 100.0).filter(lambda v: not v.is_integer())


# Wrong JSON types. No string here reads as a number, no dict is empty.
NOT_SCALAR = st.lists(st.integers(), max_size=2) | st.dictionaries(
    st.text("xyz", min_size=1, max_size=2), st.integers(), min_size=1, max_size=1
)
NOT_A_NUMBER = st.booleans() | st.text("xyz", min_size=1, max_size=3) | NOT_SCALAR
NOT_A_STRING = st.integers() | st.floats(allow_nan=False) | st.booleans() | NOT_SCALAR
NOT_A_BOOL = st.integers() | st.floats(allow_nan=False) | st.text(max_size=5) | NOT_SCALAR
# Per kind of field: values its bound rejects, and wrong types.
COUNT = st.integers(max_value=0) | fractions() | NOT_A_NUMBER
SIZE = COUNT | st.none()
SEED = st.integers(max_value=-1) | fractions() | NOT_A_NUMBER
POSITIVE = (
    st.floats(max_value=0.0)
    | st.sampled_from([math.nan, math.inf, "nan", "inf", "-inf"])
    | NOT_A_NUMBER
)
OPEN_UNIT = st.floats().filter(lambda v: not 0.0 < v < 1.0) | NOT_A_NUMBER
CHOICE = st.text(max_size=6).filter(
    lambda v: v not in ("wdt", "dwt", "dft", "ratio", "ett_hourly", "long", "short")
) | NOT_A_STRING
# 2^(order*levels) must fit a float64: at levels = 2 any order past 511
# overflows the gain.
ORDERS = (
    st.lists(st.integers(0, 3), max_size=4).filter(lambda v: len(v) != 2)
    | st.tuples(st.integers(max_value=-1), st.integers(0, 3)).map(list)
    | st.tuples(st.integers(0, 3), st.integers(512, 10**6)).map(list)
    | st.lists(NOT_A_NUMBER | fractions(), min_size=1, max_size=2)
    | st.integers()
    | st.text(max_size=3)
)
RATIOS = (
    st.tuples(POSITIVE, st.just(0.5), st.just(0.5)).map(list)
    | st.lists(st.floats(0.01, 1.0), max_size=4).filter(lambda v: len(v) != 3)
    | st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).filter(
        lambda v: abs(sum(v) - 1.0) > 1e-6
    )
    | st.floats(0.01, 1.0)
    | st.text("xyz", max_size=3)
)
NOT_AN_OBJECT = st.none() | st.integers() | st.booleans() | st.text(max_size=3) | st.lists(
    st.integers(), max_size=2
)

# (key path, values that must each exit 2 when set there alone).
BROKEN_FIELDS = {
    **{("model", key): SIZE for key in ("lookback", "horizon", "branches")},
    # From one more level on, 16 + 8 is no longer a multiple of 2^levels,
    # and no power is too large to check or to name; two channels do not
    # match the one-column CSV.
    ("model", "levels"): SIZE | st.integers(4, 10**6),
    ("model", "channels"): SIZE | st.just(2),
    ("model", "transform_kind"): CHOICE,
    ("model", "std_epsilon"): POSITIVE,
    ("model", "seed"): SEED,
    ("model", "branch_orders"): ORDERS,
    **{("train", key): POSITIVE for key in ("learning_rate", "adam_epsilon", "grad_clip")},
    **{("train", key): COUNT for key in ("batch_size", "max_epochs", "patience")},
    **{("train", key): OPEN_UNIT for key in ("adam_beta1", "adam_beta2")},
    ("train", "seed"): SEED,
    ("data", "csv"): st.just("") | st.none() | NOT_A_STRING,
    ("data", "split"): CHOICE | st.none(),
    ("data", "split", "kind"): CHOICE,
    ("data", "split", "ratios"): RATIOS,
    ("data", "stride"): COUNT,
    ("data", "standardize"): NOT_A_BOOL,
    ("metrics", "mode"): CHOICE,
    ("metrics", "period"): COUNT,
    ("out",): NOT_A_STRING,
    **{(section,): NOT_AN_OBJECT for section in ("model", "train", "data", "metrics")},
}


@st.composite
def broken_configs(draw) -> tuple[tuple[str, ...], object]:
    """VALID_CONFIG with one entry set to a bad value, or one unknown key
    added to an object; returns the key path and the value."""
    if draw(st.booleans()):
        path = draw(st.sampled_from(sorted(BROKEN_FIELDS)))
        return path, draw(BROKEN_FIELDS[path])
    parent = draw(st.sampled_from([(), ("model",), ("train",), ("data",), ("data", "split"), ("metrics",)]))
    known = VALID_CONFIG
    for key in parent:
        known = known[key]
    key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in known and k != "out"))
    return parent + (key,), draw(st.integers())


def test_valid_config_of_the_contract_tests_trains():
    # Every broken config below differs from this one in one entry only.
    assert train_on(VALID_CONFIG)[0] == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=broken_configs())
@example(case=(("model", "levels"), 20000))
@example(case=(("model", "branch_orders"), [1, 2000]))
def test_any_one_broken_config_entry_exits_2(case):
    path, value = case
    doc = copy.deepcopy(VALID_CONFIG)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    rc, err = train_on(doc)
    assert rc == 2, (path, value, err)
    assert err.startswith("config error: "), (path, value, err)


# Cells float() reads: any float's repr, one past the float64 range,
# Unicode digits and spaces, a digit group, and quoted numbers, one of
# them holding a newline.
CSV_NUMBERS = st.floats().map(repr) | st.sampled_from(
    [
        "1", "-2.5", "1e3", "1e999", "1_0", " 3 ", '"4"', '"1\n"',
        "\u0661\u0662", "\uff17.5", "\u20036\u3000",
    ]
)
CSV_CELLS = CSV_NUMBERS | st.sampled_from(
    [
        "nan", "inf", "", "x", '"5', " ", "\t",
        "2016-07-01 00:00:00", "2016-07-01 01:00:00+00:00", "2016-07-01T02:00", "date",
        # NUL, and quoted cells holding a comma, line ends or a doubled quote.
        "\0", "7\0", '"8,9"', '"2\r\n3"', '"a""b"',
        # One field past csv.field_size_limit()'s default of 131072 characters.
        "9" * 131073,
    ]
) | st.text(max_size=4)

LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def csv_bytes(draw) -> bytes:
    """Raw bytes, or rows of cells under a header, possibly led by a byte
    order mark and possibly followed by bytes that are not UTF-8.

    Half the files hold only numbers, in rows as wide as the header, so
    that many load; the rest mix in any cell and any width. A row with no
    cells is a blank line."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    # "date,a" and "a" come twice, so that most headers name a channel.
    header = draw(st.sampled_from(["date,a", "date,a,b", "a", "a,b", "date,a", "a", "date", ""]))
    width = header.count(",") + 1
    if draw(st.booleans()):
        row = st.lists(CSV_NUMBERS, min_size=width, max_size=width)
    else:
        row = st.lists(CSV_CELLS, min_size=width, max_size=width) | st.lists(CSV_CELLS, max_size=3)
    rows = draw(st.lists(row | st.just([]), min_size=1, max_size=6))
    # One line end for the whole file, or each one drawn on its own.
    each = st.sampled_from(LINE_ENDS)
    ends = draw(st.sampled_from([st.just(end) for end in LINE_ENDS] + [each]))
    text = header + "".join(draw(ends) + ",".join(cells) for cells in rows)
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    tail = draw(st.sampled_from([b"", b"\n", b"\r\n", b"\xff\xfe", b"\xe9\n"]))
    return bom + text.encode("utf-8") + tail


@PROPERTY_SETTINGS
@given(content=csv_bytes())
def test_any_csv_loads_or_exits_3(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_bytes(content)
        try:
            load_csv(str(path))
        except DataError:
            rc, err = run_cli(["transform", "--csv", str(path), "--out", str(Path(tmp) / "o")])
            assert rc == 3, (content, err)
            assert err.startswith("data error: "), (content, err)


def load_outcome(loader, path: str):
    """What a loader makes of a file: its channel names and value bits, or
    its DataError message."""
    try:
        frame = loader(path)
    except DataError as exc:
        return str(exc)
    assert frame.values.dtype == np.float64 and frame.values.flags.c_contiguous
    return frame.channel_names, frame.values.shape, frame.values.view(np.uint64).tolist()


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(content=csv_bytes())
# Each of these sends the text through csv.reader rather than str.split:
# lone CR line ends, alone or beside CRLF ones (a CR before a CRLF ends a
# line of its own), a NUL, quoted cells, a quoted comma, a quoted newline,
# and a field past the csv module's size limit.
@example(content=b"a,b\r1,2\r\r3,4\r")
@example(content=b"a,b\r\n1,2\r3,4\r\n")
@example(content=b"a\r\r\n1\r\nx\r\n")
@example(content=b"a\n1\n7\x00\n")
@example(content=b'a,b\n1,"2"\n"3",4\n')
@example(content=b'date,a\n"July 1, 2016",1\n"July 2, 2016",2\n')
@example(content=b'a\n"1\n"\n2\n')
@example(content=b"a\n1\n" + b"9" * 131073 + b"\n")
# Each of these is plain text that np.loadtxt, unlike float(), would read
# differently or not at all: an underscore between digits and an Arabic-Indic
# digit (float() reads both), the four separator characters loadtxt strips as
# whitespace and a "#" it would take as a comment (float() refuses all five),
# a row one field too wide under a date column, an empty cell and a line of
# one space.
@example(content=b"a\n1_0\n")
@example(content=b"a\n1\x1c\n")
@example(content=b"a\n1\x1d\n")
@example(content=b"a\n1\x1e\n")
@example(content=b"a\n1\x1f\n")
@example(content=b"a\n1.5#x\n")
@example(content=b"date,a\n2016-07-01,1,9\n2016-07-02,2,9\n")
@example(content=b"a,b\n1,\n")
@example(content=b"a\n \n")
@example(content="a\n\u0661\n".encode())
# Plain text that np.loadtxt reads to another shape or refuses, so that
# csv.reader decides: every row one field too wide with no date column,
# one row too wide, one row too narrow, and under a date column a cell
# only float() reads.
@example(content=b"a,b\n1,2,3\n4,5,6\n")
@example(content=b"a,b\n1,2\n3,4,5\n")
@example(content=b"a,b,c\n1,2\n3,4\n")
@example(content=b"date,a\n2016-07-01,1_0\n2016-07-02,2\n")
# CRLF text without a lone CR is split at its line ends, as LF text is: a
# dated file, a bad cell after a blank line and a ragged row.
@example(content=b"date,a\r\n2016-07-01,1\r\n2016-07-02,2\r\n")
@example(content=b"a,b\r\n1,2\r\n\r\n3,x\r\n")
@example(content=b"a,b\r\n1,2\r\n3,4,5\r\n")
def test_load_csv_matches_the_per_cell_loader(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "series.csv")
        Path(path).write_bytes(content)
        got = load_outcome(load_csv, path)
        want = load_outcome(reference.load_csv, path)
    try:
        content.decode("utf-8")
    except UnicodeDecodeError:
        # The whole file is decoded before any cell is read, so a byte that
        # is not UTF-8 is named even where the per-cell loader, reading on,
        # met a bad cell first.
        assert isinstance(want, str), (content, want)
        assert isinstance(got, str) and ": not UTF-8 text (" in got, (content, got)
        return
    assert got == want, content


# The two tests above rerun with a one-character LOAD_SLICE: a slice then
# ends at the next line end, so every line end is also a slice end.


@PROPERTY_SETTINGS
@given(content=csv_bytes())
def test_any_csv_loads_or_exits_3_a_line_a_slice(content):
    with mock.patch.object(wavets.data, "LOAD_SLICE", 1):
        test_any_csv_loads_or_exits_3.hypothesis.inner_test(content)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(content=csv_bytes())
@example(content=b"date,a\r\n2016-07-01,1\r\n\r\n2016-07-02,2\r\n")
@example(content=b"a,b\n1,2\n\n3,x\n4,5\n")
@example(content=b"a,b\n1,2\n3,4,5\n")
@example(content=b'a\n1\n2\n"3"\n')
@example(content=b"a\n1\n2\n3\x1c\n")
@example(content=b"a\n1\n2\r3\n")
@example(content=b"date,a\n2016-07-02,1\n2016-07-01,2\nJuly 3,3\n")
def test_load_csv_matches_the_per_cell_loader_a_line_a_slice(content):
    with mock.patch.object(wavets.data, "LOAD_SLICE", 1):
        test_load_csv_matches_the_per_cell_loader.hypothesis.inner_test(content)


# ---------------------------------------------------------------------------
# the checkpoint: every finite vector round-trips, any file loads or raises
# DataError

# The gradcheck shape of tests/checkpoints: 396 parameters.
CHECKPOINT_CONFIG = ModelConfig(
    lookback=8, horizon=4, channels=2, branches=2, levels=2, transform_kind="wdt", seed=2
)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(np.float64).max,
               -np.finfo(np.float64).max, 1.0, np.nextafter(1.0, 2.0)]


@PROPERTY_SETTINGS
@given(
    params=arrays(
        np.float64,
        param_count(CHECKPOINT_CONFIG),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(params=np.resize(EDGE_VALUES, param_count(CHECKPOINT_CONFIG)))
def test_any_finite_vector_round_trips_bit_for_bit(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "checkpoint.bin")
        save_checkpoint(params, CHECKPOINT_CONFIG, path)
        loaded, config = load_checkpoint(path)
    assert config == CHECKPOINT_CONFIG
    assert np.array_equal(loaded.view(np.uint64), params.view(np.uint64))
    assert loaded.dtype == np.float64 and loaded.dtype.isnative
    assert loaded.flags.c_contiguous and loaded.flags.writeable and loaded.flags.owndata


# A valid checkpoint of CHECKPOINT_CONFIG, and its first line.
VALID = (CHECKPOINTS / "wdt.bin").read_bytes()
HEADER = VALID[: VALID.index(b"\n") + 1]


def assert_loads_or_raises_data_error(content: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        path.write_bytes(content)
        try:
            params, config = load_checkpoint(str(path))
        except DataError:
            return
    assert params.shape == (param_count(config),)
    assert np.all(np.isfinite(params))


@PROPERTY_SETTINGS
@given(
    # Short bodies, and bodies of the right length, which load unless a
    # value is NaN or infinite.
    body=st.binary(max_size=64)
    | st.binary(min_size=len(VALID) - len(HEADER), max_size=len(VALID) - len(HEADER))
)
def test_any_body_after_a_valid_header_loads_or_raises_data_error(body):
    assert_loads_or_raises_data_error(HEADER + body)


def overwrite(at: int, patch: bytes) -> bytes:
    """VALID with the bytes from at on overwritten by patch."""
    return VALID[:at] + patch + VALID[at + len(patch) :]


@PROPERTY_SETTINGS
@given(
    # Any bytes, and a valid checkpoint with a run of any bytes written
    # over it, header or body.
    content=st.binary(max_size=512)
    | st.builds(overwrite, st.integers(0, len(VALID)), st.binary(min_size=1, max_size=16))
)
def test_any_file_loads_or_raises_data_error(content):
    assert_loads_or_raises_data_error(content)
