"""CSV ingestion, chronological cutting, standardization, windowing.

read_bytes opens and reads every input file: the checkpoint directly,
and the CSV and the run config through read_text, which decodes it as
UTF-8 with a leading byte order mark dropped. json_object parses every
JSON object: the run config's, which config.load_run_config reads with
read_text, and the checkpoint's header line. write_json writes every
JSON artifact. load_csv reads a plain CSV's value cells with NumPy's C
reader; any other text, and plain text that reader refuses or would
read otherwise, goes through csv.reader and float(), so every file
gives the values and errors float() gives.

Frames are treated as immutable after load; windows are a read-only
strided view into the frame's value matrix rather than copies. Where the
series is cut is decided by config.SplitSection.borders; this module only
cuts at the rows it is given.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class SeriesFrame:
    """A T x C multivariate series and its channel names."""

    values: np.ndarray
    channel_names: list[str]

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def _timestamps_strictly_increasing(stamps: list[str]) -> bool:
    # Enforceable only when every stamp parses as an ISO datetime; raw
    # strings in unknown formats are accepted but not order-checked.
    try:
        parsed = [datetime.fromisoformat(s) for s in stamps]
    except ValueError:
        return True
    return all(a < b for a, b in zip(parsed, parsed[1:]))


def read_bytes(path: str, what: str = "", error: type[Exception] = DataError) -> bytes:
    """The whole file's bytes. A file that cannot be opened or read raises
    error, its message naming the file as what + path."""
    try:
        fh = open(path, "rb")
    # ValueError: a NUL in the path, or a path the file system cannot encode.
    except (OSError, ValueError) as exc:
        raise error(f"cannot open {what}{path}: {exc}") from exc
    with fh:
        try:
            return fh.read()
        except OSError as exc:
            raise error(f"cannot read {what}{path}: {exc}") from exc


def decode_text(raw: bytes, name: str, error: type[Exception]) -> str:
    """raw as UTF-8 text, a leading byte order mark dropped and line ends
    kept as they are; bytes that are not UTF-8 raise error naming name."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{name}: not UTF-8 text ({exc.reason})") from None


def read_text(path: str, what: str = "", error: type[Exception] = DataError) -> str:
    """The whole file as text, read by read_bytes and decoded by decode_text."""
    return decode_text(read_bytes(path, what, error), f"{what}{path}", error)


def json_object(text: str, name: str, error: type[Exception]) -> dict:
    """The JSON object text holds; text that does not hold one raises
    error, its message naming name."""
    try:
        doc = json.loads(text)
    # ValueError also covers an integer past Python's digit limit, and
    # RecursionError nesting deeper than the decoder can follow.
    except (ValueError, RecursionError) as exc:
        raise error(f"{name} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{name} must hold a JSON object, got {type(doc).__name__}")
    return doc


def write_json(path, doc: dict) -> None:
    """doc as UTF-8 JSON indented by one space, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _records(text: str) -> tuple[list[list[str]], str | None]:
    """The records csv.reader reads from text, [] for a blank line, and the
    csv error that ended the read early ("line N: reason"), else None."""
    records: list[list[str]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            records.append(row)
    except csv.Error as exc:
        return records, f"line {reader.line_num}: {exc}"
    return records, None


def _plain_lines(text: str) -> list[str] | None:
    """The lines of text when csv.reader's record of each is line.split(","),
    [] for a blank one; else None.

    That holds when the text has no quote, carriage return or NUL and no
    line is longer than csv.field_size_limit(), so no field can be either.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the last line's end opens no record
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


# np.loadtxt strips these around a number as whitespace, while float()
# refuses them.
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _loadtxt_values(
    text: str, body: list[str], width: int, has_date: bool
) -> np.ndarray | None:
    """The value cells of the plain body lines of text, parsed by NumPy's C
    reader. None when there are none, when text holds one of
    _LOADTXT_ONLY_SPACES, when a line under a date column is not as wide
    as the header (usecols would drop an extra field unseen), or when the
    reader refuses a cell or reads another shape, so that float() decides."""
    if not body or any(map(text.__contains__, _LOADTXT_ONLY_SPACES)):
        return None
    if has_date and set(map(str.count, body, repeat(","))) - {width - 1}:
        return None
    try:
        values = np.loadtxt(
            body, np.float64, delimiter=",", comments=None, quotechar=None,
            usecols=range(1, width) if has_date else None, ndmin=2,
        )
    except ValueError:
        return None
    return values if values.shape == (len(body), width - has_date) else None


def _float_values(body: list[list[str]], width: int, has_date: bool) -> np.ndarray | None:
    """The value cells of the body records converted by float() in one
    pass; None when a record is not as wide as the header or float()
    refuses a cell."""
    if set(map(len, body)) - {width}:
        return None
    records = map(itemgetter(slice(1, None)), body) if has_date else body
    try:
        return np.fromiter(
            map(float, chain.from_iterable(records)), np.float64,
            count=len(body) * (width - has_date),
        )
    except ValueError:
        return None


def _first_bad_record(
    path: str, records: list[list[str]], names: list[str], has_date: bool
) -> DataError:
    """The DataError for the first data record, in reading order, that is
    not as wide as the header or holds a cell that is not a finite real.
    Called only once the one-pass parse has failed, so such a record
    exists."""
    width = len(records[0])
    for line_no, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            return DataError(
                f"{path} line {line_no}: {len(row)} fields, header has {width}"
            )
        for col, cell in zip(names, row[1:] if has_date else row):
            try:
                val = float(cell)
            except ValueError:
                return DataError(
                    f"{path} line {line_no}, column {col}: "
                    f"cannot parse {cell!r} as a real number"
                )
            if not math.isfinite(val):
                return DataError(
                    f"{path} line {line_no}, column {col}: non-finite value {cell!r}"
                )
    raise AssertionError(f"{path}: the one-pass parse failed on no bad record")


def load_csv(path: str) -> SeriesFrame:
    """Parse a comma-separated file with a header row into a SeriesFrame.

    The file is read as the csv module's default dialect, and blank lines
    are skipped. A first column named `date` holds timestamps, which must
    be strictly increasing and are then dropped; every other column is a
    channel whose cells must parse with float() as finite reals. Errors
    name the offending row and column (1-based line numbers counting the
    header as line 1). A leading UTF-8 byte order mark is dropped, so it
    never joins the first header name.

    Text with no quote, carriage return or NUL is split at newlines and
    its value cells read by np.loadtxt in one call. Any other text, and
    plain text that reader refuses or would read otherwise than float()
    (see _loadtxt_values), is read by csv.reader and every value cell
    converted by float() in one pass. The record-by-record checks run
    only to name the first bad cell.
    """
    text = read_text(path)
    lines = _plain_lines(text)
    if lines is None:
        rows, error = _records(text)
        header = rows[0] if rows else None
    else:
        rows, error = lines, None
        header = (lines[0].split(",") if lines[0] else []) if lines else None
    if header is None:
        if error:
            raise DataError(f"{path} {error}")
        raise DataError(f"{path}: empty file, expected a header row")
    has_date = bool(header) and header[0].strip().lower() == "date"
    names = [h.strip() for h in (header[1:] if has_date else header)]
    if not names:
        raise DataError(f"{path}: header declares no value columns")
    body = list(filter(None, rows[1:]))
    if lines is None:
        values = _float_values(body, len(header), has_date)
        stamps = [row[0].strip() for row in body] if has_date else []
    else:
        values = _loadtxt_values(text, body, len(header), has_date)
        if values is None:
            values = _float_values(list(filter(None, _records(text)[0][1:])), len(header), has_date)
        # A plain line's record is line.split(","): its first cell ends at its first comma.
        stamps = [line.partition(",")[0].strip() for line in body] if has_date else []
    if values is None or not np.isfinite(values).all():
        raise _first_bad_record(path, _records(text)[0], names, has_date)
    if error:
        raise DataError(f"{path} {error}")
    if not body:
        raise DataError(f"{path}: no data rows")
    try:
        increasing = _timestamps_strictly_increasing(stamps)
    except TypeError:
        raise DataError(f"{path}: timestamps mix naive and offset-aware times") from None
    if not increasing:
        raise DataError(f"{path}: timestamps are not strictly increasing")
    return SeriesFrame(values=values.reshape(len(body), len(names)), channel_names=names)


def chronological_split(
    frame: SeriesFrame, borders: tuple[int, int, int]
) -> tuple[SeriesFrame, SeriesFrame, SeriesFrame]:
    """The rows before train_end, from there to val_end and from there to
    test_end, for borders (train_end, val_end, test_end); rows past
    test_end are unused."""
    if frame.length < borders[2]:
        raise DataError(
            f"frame has {frame.length} rows, borders need at least {borders[2]}"
        )
    return tuple(
        SeriesFrame(values=frame.values[lo:hi], channel_names=frame.channel_names)
        for lo, hi in zip((0,) + borders[:2], borders)
    )


def standardize(parts: tuple[SeriesFrame, ...]) -> tuple[SeriesFrame, ...]:
    """Every part z-scored with the per-channel mean and population std of
    the first part, a zero std taken as 1e-8, so later parts never
    influence the scaling. A first part with no rows has no statistics,
    which is a DataError."""
    if parts[0].length == 0:
        raise DataError("the train part has 0 rows, no statistics to standardize with")
    mean = parts[0].values.mean(axis=0)
    std = parts[0].values.std(axis=0)
    std = np.where(std == 0.0, 1e-8, std)
    return tuple(
        SeriesFrame(values=(p.values - mean) / std, channel_names=p.channel_names)
        for p in parts
    )


def windows(
    frame: SeriesFrame, lookback: int, horizon: int, stride: int = 1
) -> np.ndarray:
    """Every window span at origins 0, stride, 2*stride, ... as one read-only
    (W, L+tau, C) view of the frame: span i is rows [i*stride,
    i*stride+L+tau), its lookback spans[i, :L] and its target spans[i, L:].

    Count is floor((T - L - tau)/stride) + 1. Windows never cross frame
    boundaries, so splitting before windowing guarantees no leakage.
    """
    if lookback < 1 or horizon < 1 or stride < 1:
        raise ConfigError(
            f"lookback, horizon, stride must be positive, got "
            f"({lookback}, {horizon}, {stride})"
        )
    t = frame.length
    if t < lookback + horizon:
        raise DataError(
            f"frame has {t} rows, too short for lookback {lookback} "
            f"+ horizon {horizon}"
        )
    spans = np.lib.stride_tricks.sliding_window_view(
        frame.values, lookback + horizon, axis=0
    )
    # (origins, C, L+tau) -> (W, L+tau, C)
    return spans[::stride].transpose(0, 2, 1)
