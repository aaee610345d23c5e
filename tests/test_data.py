"""CSV loading, splitting, standardization, windowing."""

import sys
from datetime import datetime, timedelta

import numpy as np
import pytest

import reference
import wavets.data
from helpers import same_bits, traced_peak
from wavets import ConfigError, DataError
from wavets.config import SplitSection
from wavets.data import (
    SeriesFrame,
    _first_bad_record,
    _plain_lines,
    _slices,
    chronological_split,
    load_csv,
    standardize,
    windows,
)


def write(tmp_path, text, name="series.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def frame_of(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    names = names or [f"c{i}" for i in range(values.shape[1])]
    return SeriesFrame(values=values, channel_names=names)


class TestLoadCsv:
    def test_date_column_is_not_a_channel(self, tmp_path):
        path = write(
            tmp_path,
            "date,HUFL,OT\n2016-07-01 00:00:00,5.8,30.5\n2016-07-01 01:00:00,5.7,27.8\n",
        )
        frame = load_csv(path)
        assert frame.channels == 2
        assert frame.length == 2
        assert frame.channel_names == ["HUFL", "OT"]
        np.testing.assert_allclose(frame.values, [[5.8, 30.5], [5.7, 27.8]])

    def test_byte_order_mark_dropped(self, tmp_path):
        text = "date,HUFL,OT\n2016-07-01 00:00:00,5.8,30.5\n2016-07-01 01:00:00,5.7,27.8\n"
        plain = load_csv(write(tmp_path, text))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        frame = load_csv(str(bom))
        assert frame.channel_names == plain.channel_names == ["HUFL", "OT"]
        assert np.array_equal(frame.values, plain.values)

    def test_no_date_column(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        frame = load_csv(path)
        assert frame.channels == 3
        assert frame.channel_names == ["a", "b", "c"]

    def test_nan_cell_named(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3,NaN\n")
        with pytest.raises(DataError, match=r"line 3.*column b"):
            load_csv(path)

    def test_inf_rejected(self, tmp_path):
        path = write(tmp_path, "a\n1\ninf\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(path)

    def test_unparseable_cell_located(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\nx,4\n")
        with pytest.raises(DataError, match=r"line 3.*column a"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize(
        "end", ["\n", "\r\n", "\r"], ids=["split", "crlf", "csv_reader"]
    )
    @pytest.mark.parametrize(
        "last, words",
        [("x,4", r"line 4, column a: cannot parse 'x'"), ("3", r"line 4: 1 fields, header has 2")],
        ids=["bad_cell", "ragged_row"],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, end, last, words):
        # The header is line 1 and the blank line 3, so the last row is line 4;
        # a lone CR sends the text through csv.reader, LF and CRLF text is
        # split directly.
        text = end.join(["a,b", "1,2", "", last]) + end
        assert (_plain_lines(text, 0, len(text)) is None) == (end == "\r")
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataError, match=r"series\.csv " + words):
            load_csv(str(path))

    def test_plain_cells_parse_with_loadtxt_and_fall_back_on_float(self, tmp_path, monkeypatch):
        # An ETT-shaped file takes the fast path: one np.loadtxt call reads
        # every value cell. A "1_0" cell, which loadtxt refuses and float()
        # reads as 10.0, sends the file through float(). Both give the
        # per-cell loader's bits.
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        values = np.random.default_rng(7).normal(10.0, 5.0, size=(48, 7))
        rows = [
            f"2016-07-{1 + i // 24:02d} {i % 24:02d}:00:00," + ",".join(f"{v:.3f}" for v in row)
            for i, row in enumerate(values)
        ]
        ett = write(tmp_path, "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT\n" + "\n".join(rows) + "\n")
        frame = load_csv(ett)
        assert len(calls) == 1 and list(calls[0]["usecols"]) == list(range(1, 8))
        assert same_bits(frame.values, reference.load_csv(ett).values)
        underscored = write(tmp_path, "a,b\n1_0,2\n3,4_5\n", name="underscored.csv")
        frame = load_csv(underscored)
        assert len(calls) == 2
        assert frame.values.tolist() == [[10.0, 2.0], [3.0, 45.0]]
        assert same_bits(frame.values, reference.load_csv(underscored).values)

    def test_plain_dated_and_one_column_files_skip_csv_reader(self, tmp_path, monkeypatch):
        # The benchmark's two shapes, a dated multi-column file and a
        # one-column series, and the dated file with CRLF line ends.
        # Reaching csv.reader on any would only show as slower set-up, so
        # its records function is made to raise.
        def refuse(text):
            raise AssertionError("csv.reader read a plain file that loadtxt reads")

        monkeypatch.setattr(wavets.data, "_records", refuse)
        dated_text = "date,a,b,c\n2016-07-01 00:00:00,1.5,-2,3e2\n2016-07-01 01:00:00,4,5.25,6\n"
        dated = write(tmp_path, dated_text, name="dated.csv")
        crlf = write(tmp_path, dated_text.replace("\n", "\r\n"), name="crlf.csv")
        single = write(tmp_path, "s\n0.1\n\n-7\n1e-3\n", name="single.csv")
        assert same_bits(load_csv(crlf).values, load_csv(dated).values)
        for path in (dated, crlf, single):
            assert same_bits(load_csv(path).values, reference.load_csv(path).values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(str(tmp_path / "absent.csv"))

    def test_path_with_nul_byte(self):
        # open raises ValueError, not OSError, for such a path.
        with pytest.raises(DataError, match="embedded null byte"):
            load_csv("x\0y.csv")

    def test_first_bad_record_insists_on_a_bad_record(self):
        # load_csv raises what this returns; with every record good it must
        # fail loudly rather than hand back something that is not an error.
        records = [["date", "a"], ["2016-07-01", "1"], [], ["2016-07-02", "2"]]
        with pytest.raises(AssertionError, match="no bad record"):
            _first_bad_record("good.csv", records, ["a"], True)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a\n1\n2\n".encode() + "caf\xe9\n".encode("latin-1"))
        with pytest.raises(DataError, match=r"latin1\.csv: not UTF-8 text"):
            load_csv(str(path))

    def test_non_utf8_named_before_an_earlier_bad_cell(self, tmp_path):
        # The file is decoded whole before any cell is read; the truncated
        # sequence at its end is not UTF-8 even though line 2 is bad too.
        path = tmp_path / "tail.csv"
        path.write_bytes(b"a\nx\n\xe9")
        with pytest.raises(DataError, match=r"tail\.csv: not UTF-8 text"):
            load_csv(str(path))

    def test_field_over_csv_limit_rejected(self, tmp_path):
        path = write(tmp_path, "a\n1\n" + "9" * 200_000 + "\n", name="wide.csv")
        with pytest.raises(DataError, match=r"wide\.csv line 3: field larger"):
            load_csv(path)

    def test_header_field_over_csv_limit_rejected(self, tmp_path):
        # A quote sends the text through csv.reader, which stops inside the
        # header record, so no header is read.
        path = write(tmp_path, '"' + "a" * 200_000 + '"\n1\n', name="wide.csv")
        with pytest.raises(
            DataError, match=r"wide\.csv line 1: field larger than field limit \(131072\)"
        ):
            load_csv(path)

    def test_naive_and_aware_timestamps_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "date,a\n2016-07-01 00:00:00,1\n2016-07-01 01:00:00+00:00,2\n",
            name="mixed.csv",
        )
        with pytest.raises(DataError, match=r"mixed\.csv: timestamps mix naive"):
            load_csv(path)

    def test_out_of_order_timestamps_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "date,a\n2016-07-02 00:00:00,1\n2016-07-01 00:00:00,2\n",
        )
        with pytest.raises(DataError, match="increasing"):
            load_csv(path)


def outcome(loader, path):
    """A loader's channel names and value bits, or its DataError message."""
    try:
        frame = loader(path)
    except DataError as exc:
        return str(exc)
    return frame.channel_names, frame.values.shape, frame.values.view(np.uint64).tolist()


# One character makes every line a slice of its own, so every line end is
# also a slice end; seven lets a slice hold a short line and the next.
SLICE_SIZES = [1, 7, wavets.data.LOAD_SLICE]


@pytest.mark.parametrize("size", SLICE_SIZES)
class TestLoadSlices:
    """load_csv reads plain text slice by slice: every slice boundary must
    give the per-cell loader's values or its error, line number included."""

    def same_as_per_cell(self, tmp_path, monkeypatch, size, content, csv_reader):
        # csv_reader: whether the text must reach csv.reader's records.
        monkeypatch.setattr(wavets.data, "LOAD_SLICE", size)
        records = wavets.data._records
        calls = []

        def counted(text):
            calls.append(text)
            return records(text)

        monkeypatch.setattr(wavets.data, "_records", counted)
        path = tmp_path / "series.csv"
        path.write_bytes(content.encode("utf-8"))
        got = outcome(load_csv, str(path))
        assert got == outcome(reference.load_csv, str(path))
        assert bool(calls) == csv_reader
        return got

    def test_slices_end_at_line_ends(self, size, monkeypatch):
        monkeypatch.setattr(wavets.data, "LOAD_SLICE", size)
        text = "a\n1\n\n22\r\n333"
        bounds = list(_slices(text, 2))
        assert bounds[0][0] == 2 and bounds[-1][1] == len(text)
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        assert all(text[hi - 1] == "\n" for _, hi in bounds[:-1])
        if size == 1:
            assert [text[lo:hi] for lo, hi in bounds] == ["1\n", "\n", "22\r\n", "333"]

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_blank_line_and_line_ends(self, tmp_path, monkeypatch, size, end):
        content = end.join(
            ["date,a,b", "2016-07-01 00:00:00,1.5,-2", "", "2016-07-01 01:00:00,3e2,4", ""]
        )
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, content, False)
        assert got[1] == (2, 2)

    @pytest.mark.parametrize(
        "last, words",
        [
            ("5,x", "line 5, column b: cannot parse 'x' as a real number"),
            ("5", "line 5: 1 fields, header has 2"),
        ],
        ids=["bad_cell", "ragged_row"],
    )
    def test_bad_row_in_a_later_slice(self, tmp_path, monkeypatch, size, last, words):
        content = "a,b\n1,2\n3,4\n\n" + last + "\n6,7\n"
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, content, True)
        assert got.endswith("series.csv " + words)

    @pytest.mark.parametrize("cell", ['"3"', "3\0", "3\x1c"], ids=["quote", "nul", "fs"])
    def test_csv_reader_text_in_a_later_slice(self, tmp_path, monkeypatch, size, cell):
        content = "a\n1\n2\n" + cell + "\n4\n"
        self.same_as_per_cell(tmp_path, monkeypatch, size, content, True)

    def test_line_over_the_field_limit(self, tmp_path, monkeypatch, size):
        content = "a\n1\n2\n" + "9" * 131073 + "\n"
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, content, True)
        assert "series.csv line 4: field larger than field limit (131072)" in got

    def test_long_lines_under_the_field_limit(self, tmp_path, monkeypatch, size):
        # A slice past the limit, of lines that are not.
        content = "a\n" + "0" * 99999 + "1\n" + "0" * 99999 + "2\n"
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, content, False)
        assert got[1] == (2, 1)

    UNORDERED = "timestamps are not strictly increasing"
    MIXED = "timestamps mix naive and offset-aware times"

    @pytest.mark.parametrize(
        "stamps, words",
        [
            (["2016-07-02", "2016-07-01"], UNORDERED),
            (["2016-07-01 00:00", "2016-07-01 01:00+00:00"], MIXED),
            # The first fault in reading order names the error.
            (["2016-07-02 00:00", "2016-07-01 00:00", "2016-07-03 00:00+00:00"], UNORDERED),
            (["2016-07-01 00:00", "2016-07-02 00:00+00:00", "2016-07-01 00:00+00:00"], MIXED),
        ],
        ids=["order", "naive_aware", "order_then_mix", "mix_then_order"],
    )
    def test_stamp_faults_across_slices(self, tmp_path, monkeypatch, size, stamps, words):
        content = "date,a\n" + "".join(f"{s},{i}\n" for i, s in enumerate(stamps))
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, content, False)
        assert got.endswith("series.csv: " + words)

    @pytest.mark.parametrize(
        "stamps",
        [
            ["2016-07-02 00:00", "2016-07-01 00:00", "July 3"],
            ["2016-07-01 00:00", "2016-07-02 00:00+00:00", "x"],
        ],
        ids=["order", "naive_aware"],
    )
    def test_an_unparseable_stamp_turns_the_order_check_off(
        self, tmp_path, monkeypatch, size, stamps
    ):
        # The fault's stamps parse and a later one does not, which turns
        # the order check off, as for a column in an unknown format: the
        # fault raises nothing.
        content = "date,a\n" + "".join(f"{s},{i}\n" for i, s in enumerate(stamps))
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, content, False)
        assert got[1] == (3, 1)

    def test_no_data_rows_after_blank_lines(self, tmp_path, monkeypatch, size):
        got = self.same_as_per_cell(tmp_path, monkeypatch, size, "a,b\n\n\r\n\n", False)
        assert got.endswith("series.csv: no data rows")


def write_rows(tmp_path, rows: int, channels: int, dated: bool) -> str:
    """A file of rows short cells in channels columns, after a date column
    of hourly stamps when dated."""
    cells = np.arange(rows * channels).reshape(rows, channels) % 10
    lines = [",".join(f"{c}.5" for c in row) for row in cells]
    if dated:
        start = datetime(2016, 7, 1)
        lines = [f"{start + timedelta(hours=i)},{line}" for i, line in enumerate(lines)]
    header = ("date," if dated else "") + ",".join(f"c{i}" for i in range(channels))
    return write(tmp_path, header + "\n" + "\n".join(lines) + "\n", name=f"rows{rows}.csv")


def load_extra(path: str) -> int:
    """load_csv's traced peak less its text and its values. The cells are
    short, so the values outweigh the undecoded bytes, which the peak
    holds beside the text only while it decodes them."""
    text = wavets.data.read_text(path)
    values = load_csv(path).values
    assert values.nbytes > len(text)
    return traced_peak(lambda: load_csv(path)) - sys.getsizeof(text) - values.nbytes


# Bytes load_csv may hold besides its text and its values: one slice's
# text, lines, stamps and cells and the loadtxt reader's buffers. At four
# characters a line, the shortest here, a slice's lines take about 19
# bytes a character: a str and two list entries a line.
LOAD_EXTRA = 24 * wavets.data.LOAD_SLICE

# Bytes that extra may grow by from n to 4n rows, each n past one slice:
# a list of the file's lines would add over 50 bytes a line.
LOAD_GROWTH = 64 * 1024


@pytest.mark.parametrize(
    "rows, channels, dated",
    [(16384, 1, False), (2048, 8, True), (64, 321, True)],
    ids=["series", "dated", "wide"],
)
def test_load_csv_memory_does_not_grow_with_the_file(tmp_path, rows, channels, dated):
    extra = load_extra(write_rows(tmp_path, rows, channels, dated))
    grown = load_extra(write_rows(tmp_path, 4 * rows, channels, dated))
    assert max(extra, grown) <= LOAD_EXTRA
    assert grown - extra <= LOAD_GROWTH


def test_blank_lines_do_not_size_the_values(tmp_path):
    # 20000 blank lines and one row under a 4096-column header: an array
    # of a row per line would take 655 MB.
    header = ",".join(f"c{i}" for i in range(4096))
    path = write(tmp_path, header + "\n" * 20001 + ",".join(["1"] * 4096) + "\n")
    assert load_csv(path).values.shape == (1, 4096)
    assert traced_peak(lambda: load_csv(path)) < 4 * 1024 * 1024


def ratio_split(frame, ratios):
    borders = SplitSection(kind="ratio", ratios=ratios).borders(frame.length)
    return chronological_split(frame, borders)


def ratios_checked(ratios):
    SplitSection.from_dict({"kind": "ratio", "ratios": list(ratios)}).ensure_valid()


class TestChronologicalSplit:
    def test_sizes_floor_remainder(self):
        frame = frame_of(np.arange(100.0))
        tr, va, te = ratio_split(frame, (0.7, 0.1, 0.2))
        assert (tr.length, va.length, te.length) == (70, 10, 20)

    def test_small_frame(self):
        # floor(10*0.7) = 7 and floor(10*0.1) = 1; the test part takes the rest.
        frame = frame_of(np.arange(10.0))
        assert SplitSection(ratios=(0.7, 0.1, 0.2)).borders(10) == (7, 8, 10)
        tr, va, te = ratio_split(frame, (0.7, 0.1, 0.2))
        assert (tr.length, va.length, te.length) == (7, 1, 2)

    # The ratios are checked once, by the config, before any data is read.
    def test_bad_ratio_sum(self):
        with pytest.raises(ConfigError, match="data.split.ratios must sum to 1"):
            ratios_checked((0.5, 0.5, 0.5))

    def test_nonpositive_ratio(self):
        with pytest.raises(ConfigError, match=r"ratios\[1\] must be finite and > 0"):
            ratios_checked((1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_ratio(self, bad):
        with pytest.raises(ConfigError, match=r"ratios\[0\] must be finite and > 0"):
            ratios_checked((bad, 0.5, 0.5))

    def test_partition_exact(self, rng):
        values = rng.normal(size=(57, 3))
        frame = frame_of(values)
        tr, va, te = ratio_split(frame, (0.6, 0.2, 0.2))
        rebuilt = np.concatenate([tr.values, va.values, te.values])
        np.testing.assert_array_equal(rebuilt, values)


class TestBorderSplit:
    def test_ett_hourly_borders(self):
        frame = frame_of(np.arange(17420.0))
        borders = SplitSection(kind="ett_hourly").borders(frame.length)
        assert borders == (8640, 11520, 14400)
        tr, va, te = chronological_split(frame, borders)
        assert (tr.length, va.length, te.length) == (8640, 2880, 2880)
        # Rows past the last border are unused.
        np.testing.assert_array_equal(te.values[[0, -1], 0], [11520.0, 14399.0])

    def test_short_frame_rejected(self):
        borders = SplitSection(kind="ett_hourly").borders(100)
        with pytest.raises(DataError, match="frame has 100 rows, borders need at least 14400"):
            chronological_split(frame_of(np.arange(100.0)), borders)


class TestStandardize:
    def test_hand_values(self):
        # Mean 1 and population std 1, from the first part.
        first, later = standardize((frame_of([0.0, 2.0]), frame_of([4.0])))
        np.testing.assert_array_equal(first.values[:, 0], [-1.0, 1.0])
        np.testing.assert_array_equal(later.values[:, 0], [3.0])

    def test_identity_stats(self, rng):
        # The statistics come from the first part only: mean 0 and std 1
        # here, which leave the second part as it is.
        frame = frame_of(rng.normal(size=(20, 2)))
        first = frame_of(np.array([[-1.0, -1.0], [1.0, 1.0]]))
        _, out = standardize((first, frame))
        np.testing.assert_allclose(out.values, frame.values)

    def test_constant_channel_epsilon(self):
        # A zero std becomes 1e-8: the constant first part maps to 0 and a
        # later part's offset of 1e-8 to 1.
        first, later = standardize((frame_of(np.full(5, 7.0)), frame_of([7.0 + 1e-8])))
        np.testing.assert_allclose(first.values, 0.0)
        np.testing.assert_allclose(later.values, 1.0, rtol=1e-6)

    def test_one_array_a_part_with_the_expression_bits(self, rng):
        # Each part is (values - mean) / std bit for bit, made as one array
        # of its size: the traced peak is the three parts' outputs, NumPy's
        # 64 KiB broadcasting buffer and a few per-channel arrays, the train
        # part's std temporary gone before them. A division out of place
        # would add the train part's size.
        frame = frame_of(rng.normal(5.0, 3.0, size=(4000, 16)))
        parts = ratio_split(frame, (0.7, 0.1, 0.2))
        mean, std = parts[0].values.mean(axis=0), parts[0].values.std(axis=0)
        for got, part in zip(standardize(parts), parts):
            assert same_bits(got.values, (part.values - mean) / std)
        assert traced_peak(lambda: standardize(parts)) <= frame.values.nbytes + 80 * 1024

    def test_round_trip_with_inverted_stats(self, rng):
        # A two-row first part with mean -m/s and std 1/s inverts the
        # z-score (x - m) / s.
        frame = frame_of(rng.normal(size=(30, 4)))
        mean, std = frame.values.mean(axis=0), frame.values.std(axis=0)
        (standardized,) = standardize((frame,))
        inverse = frame_of(np.stack([(-mean - 1.0) / std, (-mean + 1.0) / std]))
        _, back = standardize((inverse, standardized))
        assert np.max(np.abs(back.values - frame.values)) < 1e-12


class TestWindows:
    # Span i starts at row i * stride; its first L rows are the lookback.
    def test_count_formula(self):
        spans = windows(frame_of(np.arange(10.0)), 4, 2)
        assert len(spans) == 5
        assert list(spans[:, 0, 0]) == [0, 1, 2, 3, 4]

    def test_single_pair(self):
        spans = windows(frame_of(np.arange(6.0)), 4, 2)
        assert spans.shape == (1, 6, 1)
        np.testing.assert_array_equal(spans[0, :4, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(spans[0, 4:, 0], [4, 5])

    def test_too_short_frame(self):
        with pytest.raises(DataError):
            windows(frame_of(np.arange(5.0)), 4, 2)

    @pytest.mark.parametrize("sizes", [(0, 2, 1), (4, 0, 1), (4, 2, 0), (4, 2, -1)])
    def test_nonpositive_size_rejected(self, sizes):
        with pytest.raises(ConfigError, match="lookback, horizon, stride must be positive"):
            windows(frame_of(np.arange(10.0)), *sizes)

    def test_stride(self):
        spans = windows(frame_of(np.arange(20.0)), 4, 2, stride=3)
        assert len(spans) == (20 - 4 - 2) // 3 + 1
        assert list(spans[:, 0, 0]) == [0, 3, 6, 9, 12]

    def test_slices_adjacent(self, rng):
        frame = frame_of(rng.normal(size=(30, 2)))
        for i, span in enumerate(windows(frame, 8, 4)):
            np.testing.assert_array_equal(span[:8], frame.values[i : i + 8])
            np.testing.assert_array_equal(span[8:], frame.values[i + 8 : i + 12])

    def test_tensor_stacking(self, rng):
        # One (W, L+tau, C) array, a read-only view of the frame, that
        # batches index and slice directly.
        frame = frame_of(rng.normal(size=(20, 3)))
        spans = windows(frame, 6, 2, stride=2)
        assert spans.shape == (7, 8, 3)
        assert np.shares_memory(spans, frame.values)
        assert not spans.flags.writeable
        np.testing.assert_array_equal(spans[3, :6], frame.values[6:12])
        np.testing.assert_array_equal(spans[[3, 1]][:, 6:], frame.values[[[12, 13], [8, 9]]])
        assert len(spans[::2][:3]) == 3

    def test_no_leakage_across_splits(self, rng):
        # Windows are built after splitting, so none can span a border.
        frame = frame_of(rng.normal(size=(50, 1)))
        tr, va, te = ratio_split(frame, (0.6, 0.2, 0.2))
        for part, lo, hi in ((tr, 0, 30), (va, 30, 40), (te, 40, 50)):
            for origin, span in enumerate(windows(part, 4, 2)):
                np.testing.assert_array_equal(
                    span, frame.values[lo + origin : lo + origin + 6]
                )
                assert lo + origin + 6 <= hi
