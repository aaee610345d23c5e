"""CSV loading, splitting, standardization, windowing."""

import numpy as np
import pytest

import reference
import wavets.data
from helpers import same_bits
from wavets import ConfigError, DataError
from wavets.config import SplitSection
from wavets.data import (
    SeriesFrame,
    _first_bad_record,
    _plain_lines,
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

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["split", "csv_reader"])
    @pytest.mark.parametrize(
        "last, words",
        [("x,4", r"line 4, column a: cannot parse 'x'"), ("3", r"line 4: 1 fields, header has 2")],
        ids=["bad_cell", "ragged_row"],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, end, last, words):
        # The header is line 1 and the blank line 3, so the last row is line 4;
        # a CR sends the text through csv.reader, plain text is split directly.
        text = end.join(["a,b", "1,2", "", last]) + end
        assert (_plain_lines(text) is None) == ("\r" in end)
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
        # The benchmark's two shapes: a dated multi-column file and a
        # one-column series. Reaching csv.reader on either would only show
        # as slower set-up, so its records function is made to raise.
        def refuse(text):
            raise AssertionError("csv.reader read a plain file that loadtxt reads")

        monkeypatch.setattr(wavets.data, "_records", refuse)
        dated = write(
            tmp_path,
            "date,a,b,c\n2016-07-01 00:00:00,1.5,-2,3e2\n2016-07-01 01:00:00,4,5.25,6\n",
            name="dated.csv",
        )
        single = write(tmp_path, "s\n0.1\n\n-7\n1e-3\n", name="single.csv")
        for path in (dated, single):
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
