"""The command line's exit-code contract, one row per case.

Each row runs ``python -m wavets.cli`` in a child process, so the exit
status, the stderr stream and the file system are seen as a shell sees
them. The contract: exit 0 with nothing on stderr on success; exit 2 for
a config error, 3 for a data error and 4 for a numerical error, each with
exactly one stderr line, so never a traceback, and nothing on stdout. A
failed row leaves its directory as it found it, so no --out stays behind.
Every row leaves its input files as they were and writes nothing into its
working directory, an empty directory of its own.

In a row's argv and files, "{tmp}" stands for the row's directory and
"{checkpoint}" for a checkpoint of configs/tiny_synthetic.json trained
for one epoch.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from helpers import CHECKPOINTS, older_checkpoint
from wavets.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
TINY_CSV = str(REPO / "data" / "synthetic_tiny.csv")
TINY_CONFIG = str(REPO / "configs" / "tiny_synthetic.json")
GRADCHECK_CONFIG = (REPO / "configs" / "gradcheck.json").read_bytes()
# Under the POSIX locale without UTF-8 mode the file system encoding is
# ASCII, so a path holding "é" cannot reach the OS.
POSIX = {"PYTHONUTF8": "0", "LC_ALL": "POSIX"}


def tiny(**sections) -> str:
    """configs/tiny_synthetic.json with an absolute data.csv, each dict in
    sections updating its section and any other value replacing it. JSON
    escapes a non-ASCII character, so the text is ASCII."""
    doc = json.loads(Path(TINY_CONFIG).read_text())
    doc["data"]["csv"] = TINY_CSV
    for key, value in sections.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return json.dumps(doc)


def ratios(*parts) -> dict:
    return {"split": {"kind": "ratio", "ratios": list(parts)}}


# 16000 samples of one channel: a 197 MiB wdt model at L=4096, tau=64.
LONG_CSV = "s\n" + "".join(f"{math.sin(t / 7.0) + 1e-4 * t!r}\n" for t in range(16000))
LONG_MODEL = {"lookback": 4096, "horizon": 64, "channels": 1, "branches": 1, "levels": 1}


@dataclass(frozen=True)
class Row:
    id: str
    argv: tuple[str, ...]
    code: int
    # How the one stderr line of a failure starts.
    stderr: str = ""
    # Written under {tmp} before the run, text or bytes; None makes a directory.
    files: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    # An address-space limit in bytes, set in the child before Python starts.
    rlimit_as: int | None = None


ROWS = [
    # -- config errors, exit 2
    Row(
        "train-nan-ratio",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        2,
        "config error: data.split.ratios[0] must be finite and > 0",
        files={"run.json": tiny(data=ratios("nan", 0.5, 0.5))},
    ),
    # A gain past float64, 2^(order*levels) with order*levels > 1023, or a
    # 2^levels past any series length.
    Row(
        "transform-levels-20000",
        ("transform", "--csv", TINY_CSV, "--levels", "20000", "--out", "{tmp}/out"),
        2,
        "config error: derivative order 1 at levels = 20000 needs the gain 2^(order*levels)",
    ),
    Row(
        "transform-levels-20000-order-0",
        ("transform", "--csv", TINY_CSV, "--levels", "20000", "--order", "0",
         "--out", "{tmp}/out"),
        2,
        "config error: series has 2048 samples; need at least 2^20000 for 20000 levels",
    ),
    Row(
        "transform-order-2000",
        ("transform", "--csv", TINY_CSV, "--levels", "1", "--order", "2000",
         "--out", "{tmp}/out"),
        2,
        "config error: derivative order 2000 at levels = 1 needs the gain 2^(order*levels)",
    ),
    # An empty --out names no directory: nothing lands in the working one.
    Row(
        "transform-empty-out",
        ("transform", "--csv", TINY_CSV, "--out", ""),
        2,
        "config error: --out is empty",
    ),
    Row(
        "transform-out-on-a-file",
        ("transform", "--csv", TINY_CSV, "--out", "{tmp}/blocker"),
        2,
        "config error: cannot create output directory {tmp}/blocker: ",
        files={"blocker": "keep\n"},
    ),
    Row(
        "eval-out-on-a-file",
        ("eval", "--checkpoint", "{checkpoint}", "--out", "{tmp}/blocker"),
        2,
        "config error: cannot create output directory {tmp}/blocker: ",
        files={"blocker": "keep\n"},
    ),
    # The write itself fails, and the report is printed only once written.
    Row(
        "eval-metrics-txt-a-directory",
        ("eval", "--checkpoint", "{checkpoint}", "--out", "{tmp}/eval"),
        2,
        "config error: cannot write output: [Errno 21] Is a directory: '{tmp}/eval/metrics.txt'",
        files={"eval/metrics.txt": None},
    ),
    Row(
        "train-short-period-past-lookback",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        2,
        "config error: metrics.period = 40 must be at most model.lookback = 32",
        files={"run.json": tiny(metrics={"mode": "short", "period": 40})},
    ),
    Row(
        "train-channels-3-on-2",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        2,
        f"config error: model.channels is 3 but {TINY_CSV} has 2 channels",
        files={"run.json": tiny(model={"channels": 3})},
    ),
    Row(
        "scalogram-unknown-channel",
        ("scalogram", "--csv", TINY_CSV, "--channel", "s3", "--out", "{tmp}/out"),
        2,
        "config error: unknown channel 's3'; available: s1, s2",
    ),
    # Paths the file system cannot encode, relative to the config or
    # absolute, as the out entry or as data.csv.
    Row(
        "posix-gradcheck-relative-out",
        ("gradcheck", "--config", "{tmp}/gc.json"),
        2,
        "config error: cannot resolve config.out 'r\\xe9s': ",
        files={"gc.json": json.dumps({**json.loads(GRADCHECK_CONFIG), "out": "rés"})},
        env=POSIX,
    ),
    Row(
        "posix-train-absolute-out",
        ("train", "--config", "{tmp}/run.json"),
        2,
        "config error: cannot resolve config.out '{tmp}/r\\xe9s': ",
        files={"run.json": tiny(train={"max_epochs": 1}, out="{tmp}/rés")},
        env=POSIX,
    ),
    Row(
        "posix-train-relative-csv",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        2,
        "config error: cannot resolve data.csv 's\\xe9ries.csv': ",
        files={"run.json": tiny(data={"csv": "séries.csv"})},
        env=POSIX,
    ),
    Row(
        "posix-train-absolute-csv",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        2,
        "config error: cannot resolve data.csv '{tmp}/s\\xe9ries.csv': ",
        files={"run.json": tiny(train={"max_epochs": 1}, data={"csv": "{tmp}/séries.csv"})},
        env=POSIX,
    ),
    # A run that outgrows its address space mid-training. With Python 3.11
    # and NumPy 2.4 on x86-64 Linux, limits from 450 to 1600 MiB all end in
    # a MemoryError inside train, after the 197 MiB model is allocated.
    Row(
        "train-out-of-memory",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        2,
        "config error: out of memory: ",
        files={
            "long.csv": LONG_CSV,
            "run.json": tiny(model=LONG_MODEL, data={
                "csv": "{tmp}/long.csv", "stride": 512, **ratios(0.4, 0.3, 0.3)}),
        },
        rlimit_as=800 << 20,
    ),
    # -- data errors, exit 3
    Row(
        "transform-latin1-csv",
        ("transform", "--csv", "{tmp}/latin1.csv", "--out", "{tmp}/out"),
        3,
        "data error: {tmp}/latin1.csv: not UTF-8 text (",
        files={"latin1.csv": b"a\n1\n\xe9\n"},
    ),
    Row(
        "ablate-latin1-csv",
        ("ablate", "--config", "{tmp}/run.json", "--out", "{tmp}/out", "--quiet"),
        3,
        "data error: {tmp}/latin1.csv: not UTF-8 text (",
        files={
            "latin1.csv": b"a,b\n1,2\n\xe9,3\n",
            "run.json": tiny(data={"csv": "{tmp}/latin1.csv"}),
        },
    ),
    # float() decides every cell that np.loadtxt reads otherwise: it refuses
    # the separator character \x1c, which loadtxt would strip as whitespace.
    Row(
        "transform-separator-cell",
        ("transform", "--csv", "{tmp}/separator.csv", "--levels", "1", "--out", "{tmp}/out"),
        3,
        "data error: {tmp}/separator.csv line 2, column b: cannot parse",
        files={"separator.csv": "a,b\n2,1\x1c\n3,4\n"},
    ),
    # A checkpoint is one JSON header line, then the parameters' bytes.
    Row(
        "eval-checkpoint-not-an-object",
        ("eval", "--checkpoint", "{tmp}/checkpoint.bin", "--config", TINY_CONFIG),
        3,
        "data error: checkpoint {tmp}/checkpoint.bin is not a version-4 checkpoint: "
        "its first line must hold a JSON object, got list",
        files={"checkpoint.bin": "[1, 2]\n"},
    ),
    Row(
        "eval-checkpoint-version-3",
        ("eval", "--checkpoint", "{tmp}/checkpoint.json", "--config", TINY_CONFIG),
        3,
        "data error: checkpoint {tmp}/checkpoint.json is not a version-4 checkpoint: "
        "its first line is not valid JSON: ",
        files={"checkpoint.json": older_checkpoint(3)},
    ),
    Row(
        "eval-checkpoint-truncated-body",
        ("eval", "--checkpoint", "{tmp}/checkpoint.bin", "--config", TINY_CONFIG),
        3,
        "data error: checkpoint {tmp}/checkpoint.bin holds 395.5 parameter values, "
        "but its wdt config expects 396",
        files={"checkpoint.bin": (CHECKPOINTS / "wdt.bin").read_bytes()[:-4]},
    ),
    # -- numerical errors, exit 4, met after --out is claimed, so the empty
    # --out is removed again. The loss overflows in the first epoch.
    Row(
        "train-learning-rate-1e300",
        ("train", "--config", "{tmp}/run.json", "--out", "{tmp}/out"),
        4,
        "numerical error: non-finite training loss at epoch 1,",
        files={"run.json": tiny(train={"learning_rate": 1e300})},
    ),
    # The finest gain 2^12 takes a detail of 1.4e306 past float64, after
    # the 17 samples are cut to 16, and the truncation is not reported.
    Row(
        "transform-gain-overflows-after-truncating",
        ("transform", "--csv", "{tmp}/big.csv", "--levels", "3", "--order", "4",
         "--out", "{tmp}/out"),
        4,
        "numerical error: band LH1 has non-finite coefficients",
        files={"big.csv": "v\n" + "1e306\n-1e306\n" * 8 + "1e306\n"},
    ),
    # -- success, exit 0
    # float() reads "1_0" as 10, where np.loadtxt refuses it.
    Row(
        "transform-underscore-cell",
        ("transform", "--csv", "{tmp}/underscore.csv", "--levels", "1", "--out", "{tmp}/out"),
        0,
        files={"underscore.csv": "a,b\n1_0,2\n3,4_5\n"},
    ),
    # The config reader, like the CSV reader, drops a byte order mark.
    Row(
        "gradcheck-byte-order-mark",
        ("gradcheck", "--config", "{tmp}/bom.json"),
        0,
        files={"bom.json": b"\xef\xbb\xbf" + GRADCHECK_CONFIG},
    ),
]


def fill(text, tmp, checkpoint):
    return text.replace("{tmp}", str(tmp)).replace("{checkpoint}", str(checkpoint))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """configs/tiny_synthetic.json trained for one epoch, for the eval rows."""
    out = tmp_path_factory.mktemp("tiny")
    config = out / "run.json"
    config.write_text(tiny(train={"max_epochs": 1}))
    assert main(["train", "--config", str(config), "--out", str(out / "train")]) == 0
    return out / "train" / "checkpoint.bin"


def address_space_limit(limit):
    import resource

    def set_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
    return set_limit


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs Linux's POSIX locale and RLIMIT_AS"
)
@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_contract(tmp_path, checkpoint, row):
    inputs = {}
    for name, content in row.files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            path.mkdir()
            continue
        if isinstance(content, str):
            content = fill(content, tmp_path, checkpoint).encode()
        path.write_bytes(content)
        inputs[path] = content
    work = tmp_path / "cwd"
    work.mkdir()
    before = sorted(tmp_path.rglob("*"))
    paths = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run(
        [sys.executable, "-m", "wavets.cli", *(fill(a, tmp_path, checkpoint) for a in row.argv)],
        capture_output=True, text=True, timeout=120, cwd=work,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths), **row.env},
        preexec_fn=row.rlimit_as and address_space_limit(row.rlimit_as),
    )
    assert done.returncode == row.code, done.stderr
    if row.code == 0:
        assert done.stderr == ""
    else:
        # One line, so no traceback and no warning; and no report.
        assert done.stderr.startswith(fill(row.stderr, tmp_path, checkpoint)), done.stderr
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr
        assert done.stdout == ""
        # Every directory the command created is gone again.
        assert sorted(tmp_path.rglob("*")) == before
    for path, content in inputs.items():
        assert path.read_bytes() == content, path
    assert list(work.iterdir()) == []


def test_rows_parse_and_cover_every_command_and_exit_code():
    # A mistyped flag would pass an exit-2 row through argparse's usage error.
    parser = build_parser()
    for row in ROWS:
        parser.parse_args([fill(a, "tmp", "checkpoint.bin") for a in row.argv])
    commands = {row.argv[0] for row in ROWS}
    assert commands == {"transform", "scalogram", "train", "eval", "ablate", "gradcheck"}
    assert {row.code for row in ROWS} == {0, 2, 3, 4}
    assert len({row.id for row in ROWS}) == len(ROWS)
