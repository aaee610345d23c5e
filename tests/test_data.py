"""CSV loading, splitting, standardization, windowing."""

import numpy as np
import pytest

from wavets import ConfigError, DataError
from wavets.data import (
    ETT_HOURLY_BORDERS,
    SeriesFrame,
    StandardizeStats,
    _first_bad_record,
    _plain_lines,
    chronological_split,
    chronological_split_borders,
    load_csv,
    standardize_apply,
    standardize_fit,
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


class TestChronologicalSplit:
    def test_sizes_floor_remainder(self):
        frame = frame_of(np.arange(100.0))
        tr, va, te = chronological_split(frame, (0.7, 0.1, 0.2))
        assert (tr.length, va.length, te.length) == (70, 10, 20)

    def test_small_frame(self):
        frame = frame_of(np.arange(10.0))
        tr, va, te = chronological_split(frame, (0.7, 0.1, 0.2))
        assert (tr.length, va.length, te.length) == (7, 1, 2)

    def test_bad_ratio_sum(self):
        with pytest.raises(ConfigError):
            chronological_split(frame_of(np.arange(10.0)), (0.5, 0.5, 0.5))

    def test_nonpositive_ratio(self):
        with pytest.raises(ConfigError):
            chronological_split(frame_of(np.arange(10.0)), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_ratio(self, bad):
        with pytest.raises(ConfigError):
            chronological_split(frame_of(np.arange(10.0)), (bad, 0.5, 0.5))

    def test_partition_exact(self, rng):
        values = rng.normal(size=(57, 3))
        frame = frame_of(values)
        tr, va, te = chronological_split(frame, (0.6, 0.2, 0.2))
        rebuilt = np.concatenate([tr.values, va.values, te.values])
        np.testing.assert_array_equal(rebuilt, values)


class TestBorderSplit:
    def test_ett_hourly_borders(self):
        frame = frame_of(np.arange(17420.0))
        tr, va, te = chronological_split_borders(frame, ETT_HOURLY_BORDERS)
        assert (tr.length, va.length, te.length) == (8640, 2880, 2880)

    def test_short_frame_rejected(self):
        with pytest.raises(DataError):
            chronological_split_borders(frame_of(np.arange(100.0)), ETT_HOURLY_BORDERS)

    def test_bad_border_order(self):
        with pytest.raises(ConfigError):
            chronological_split_borders(frame_of(np.arange(100.0)), (50, 40, 60))


class TestStandardize:
    def test_hand_values(self):
        stats = standardize_fit(frame_of([0.0, 2.0]))
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0
        out = standardize_apply(frame_of([0.0, 2.0]), stats)
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 1.0])

    def test_identity_stats(self, rng):
        frame = frame_of(rng.normal(size=(20, 2)))
        stats = standardize_fit(frame_of(np.array([[-1.0, -1.0], [1.0, 1.0]])))
        out = standardize_apply(frame, stats)
        np.testing.assert_allclose(out.values, frame.values)

    def test_constant_channel_epsilon(self):
        frame = frame_of(np.full(5, 7.0))
        stats = standardize_fit(frame)
        assert stats.std[0] == 1e-8
        out = standardize_apply(frame, stats)
        np.testing.assert_allclose(out.values, 0.0)

    def test_round_trip_with_inverted_stats(self, rng):
        frame = frame_of(rng.normal(size=(30, 4)))
        stats = standardize_fit(frame)
        standardized = standardize_apply(frame, stats)
        inverse = StandardizeStats(mean=-stats.mean / stats.std, std=1.0 / stats.std)
        back = standardize_apply(standardized, inverse)
        assert np.max(np.abs(back.values - frame.values)) < 1e-12

    def test_channel_count_mismatch(self, rng):
        stats = standardize_fit(frame_of(rng.normal(size=(10, 2))))
        with pytest.raises(DataError):
            standardize_apply(frame_of(rng.normal(size=(10, 3))), stats)


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
        tr, va, te = chronological_split(frame, (0.6, 0.2, 0.2))
        for part, lo, hi in ((tr, 0, 30), (va, 30, 40), (te, 40, 50)):
            for origin, span in enumerate(windows(part, 4, 2)):
                np.testing.assert_array_equal(
                    span, frame.values[lo + origin : lo + origin + 6]
                )
                assert lo + origin + 6 <= hi
