"""End-to-end tests for the command-line interface.

Every test drives main() with argv lists in-process, so exit codes and
emitted files are checked without spawning the console command. The
cases that need a process of their own, an address-space limit or a
locale set before the interpreter starts, and the exit-code contract as
a shell sees it, are rows of test_contract.py.
"""

import json
import math
import shutil
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import wavets.cli
from helpers import corrupt_projection_gradient, older_checkpoint, pinned_checkpoint
from wavets.cli import load_splits, main, split_window_pairs
from wavets.config import load_run_config
from wavets.data import load_csv
from wavets.model import (
    ModelConfig, load_checkpoint, param_blocks, param_count, param_layout, save_checkpoint,
)
from wavets.wavelet import make_filterbank, dwt_multi
from wavets.wdt import DerivativePyramid, write_coefficients_csv

REPO = Path(__file__).resolve().parent.parent
TINY_CSV = REPO / "data" / "synthetic_tiny.csv"


def write_series_csv(path, length, channels=1):
    # Sinusoid plus trend per channel, distinct periods, no noise.
    lines = ["date," + ",".join(f"c{i}" for i in range(channels))]
    for t in range(length):
        day = 1 + t // 24
        stamp = f"2021-01-{day:02d} {t % 24:02d}:00:00"
        vals = [
            0.8 * math.sin(2.0 * math.pi * t / (12 + 4 * i)) + 0.003 * t + i
            for i in range(channels)
        ]
        lines.append(stamp + "," + ",".join(repr(v) for v in vals))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_run_config(path, csv_path, **overrides):
    doc = {
        "model": {
            "lookback": 16,
            "horizon": 8,
            "channels": 1,
            "branches": 2,
            "levels": 2,
            "transform_kind": "wdt",
            "seed": 0,
        },
        "train": {
            "learning_rate": 0.01,
            "batch_size": 16,
            "max_epochs": 8,
            "patience": 8,
            "seed": 0,
        },
        "data": {
            "csv": str(csv_path),
            "split": {"kind": "ratio", "ratios": [0.7, 0.15, 0.15]},
            "stride": 2,
            "standardize": True,
        },
        "metrics": {"mode": "long"},
    }
    for key, sub in overrides.items():
        if isinstance(sub, dict):
            doc.setdefault(key, {}).update(sub)
        else:
            doc[key] = sub
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


@pytest.fixture
def series_csv(tmp_path):
    return write_series_csv(tmp_path / "series.csv", 400)


@pytest.fixture
def run_config(tmp_path, series_csv):
    return write_run_config(tmp_path / "run.json", series_csv)


# ---------------------------------------------------------------------------
# transform / scalogram


def test_transform_golden_four_samples(tmp_path):
    csv = tmp_path / "four.csv"
    csv.write_text("v\n1.0\n2.0\n3.0\n4.0\n")
    rc = main(
        [
            "transform",
            "--csv",
            str(csv),
            "--levels",
            "2",
            "--order",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    rows = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()
    assert rows[0] == "band,index,value,gain"
    assert len(rows) == 5
    parsed = [r.split(",") for r in rows[1:]]
    assert [p[0] for p in parsed] == ["LL2", "LH2", "LH1", "LH1"]
    values = [float(p[2]) for p in parsed]
    assert abs(values[0] - 5.0) < 1e-12
    assert abs(values[1] - 4.0) < 1e-12
    assert abs(values[2] - 2.82842712474619) < 1e-11
    assert abs(values[3] - 2.82842712474619) < 1e-11
    assert [float(p[3]) for p in parsed] == [1.0, -2.0, -4.0, -4.0]


def test_transform_truncates_and_reports(tmp_path, capsys):
    csv = tmp_path / "ten.csv"
    csv.write_text("v\n" + "\n".join(str(float(i)) for i in range(10)) + "\n")
    rc = main(
        [
            "transform",
            "--csv",
            str(csv),
            "--levels",
            "2",
            "--order",
            "0",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert "truncating 10 samples to 8" in capsys.readouterr().out
    rows = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()
    # 8 samples at K=2: 2 approx + 2 + 4 detail coefficients
    assert len(rows) == 9


def test_transform_too_short_exits_2(tmp_path, capsys):
    csv = tmp_path / "three.csv"
    csv.write_text("v\n1.0\n2.0\n3.0\n")
    rc = main(
        [
            "transform",
            "--csv",
            str(csv),
            "--levels",
            "2",
            "--order",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "need at least 4" in capsys.readouterr().err


def test_transform_unknown_channel_exits_2(tmp_path, series_csv):
    rc = main(
        [
            "transform",
            "--csv",
            str(series_csv),
            "--channel",
            "nope",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    rc = main(
        [
            "transform",
            "--csv",
            str(series_csv),
            "--channel",
            "5",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2


def test_transform_channel_name_matches_index(tmp_path):
    csv = write_series_csv(tmp_path / "two.csv", 64, channels=2)
    for channel, out in (("c1", "by_name"), ("1", "by_index")):
        rc = main(
            [
                "transform",
                "--csv",
                str(csv),
                "--channel",
                channel,
                "--levels",
                "2",
                "--out",
                str(tmp_path / out),
            ]
        )
        assert rc == 0
    a = (tmp_path / "by_name" / "coefficients.csv").read_bytes()
    b = (tmp_path / "by_index" / "coefficients.csv").read_bytes()
    assert a == b


def test_transform_order0_matches_plain_dwt_bytes(tmp_path, series_csv):
    rc = main(
        [
            "transform",
            "--csv",
            str(series_csv),
            "--levels",
            "3",
            "--order",
            "0",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    # Independent plain-DWT export: unit gains over the ordinary pyramid.
    import csv as csvmod

    with open(series_csv) as fh:
        rows = list(csvmod.reader(fh))
    series = np.array([float(r[1]) for r in rows[1:]])
    usable = (series.shape[0] // 8) * 8
    bands = dwt_multi(series[:usable], make_filterbank("db1"), levels=3)
    plain = DerivativePyramid(order=0, bands=bands)
    write_coefficients_csv(plain, str(tmp_path / "plain.csv"))
    assert (tmp_path / "plain.csv").read_bytes() == (
        tmp_path / "out" / "coefficients.csv"
    ).read_bytes()


def test_scalogram_subcommand_writes_both(tmp_path, series_csv):
    rc = main(
        [
            "scalogram",
            "--csv",
            str(series_csv),
            "--levels",
            "2",
            "--order",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "out" / "coefficients.csv").exists()
    grid = (tmp_path / "out" / "scalogram.csv").read_text().splitlines()
    assert grid[0].startswith("band,0,1,")
    assert len(grid) == 4  # header + LL2 + LH2 + LH1


def test_transform_scalogram_flag(tmp_path, series_csv):
    rc = main(
        [
            "transform",
            "--csv",
            str(series_csv),
            "--levels",
            "1",
            "--scalogram",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "out" / "scalogram.csv").exists()


def test_transform_bad_flags_exit_2(tmp_path, series_csv):
    base = ["transform", "--csv", str(series_csv), "--out", str(tmp_path / "o")]
    assert main(base + ["--levels", "0"]) == 2
    assert main(base + ["--order", "-1"]) == 2
    assert main(base + ["--wavelet", "db4"]) == 2


def test_flag_prefix_is_not_a_flag(tmp_path, series_csv, capsys):
    # A flag answers only to its full name, so a prefix cannot land on
    # --levels today and on a different flag once a new one shares it.
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--csv", str(series_csv), "--level", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --level 3" in capsys.readouterr().err
    assert not out.exists()


# Every numpy warning is an error here: the overflow that makes the run
# fail must show only as the one numerical-error line.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["transform", "scalogram"])
def test_transform_overflowing_gains_exit_4_before_writing(tmp_path, capsys, command):
    # Finite input near the float64 limit: the order-4 gains overflow it.
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("a\n" + "".join(f"{(-1) ** t * 1e306!r}\n" for t in range(16)))
    out = tmp_path / "out"
    rc = main(
        [command, "--csv", str(csv_path), "--levels", "3", "--order", "4", "--out", str(out)]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "non-finite coefficients" in err
    # The failure comes after the claim, which removes the empty --out again.
    assert not out.exists()


def test_transform_missing_csv_exits_3(tmp_path):
    rc = main(
        [
            "transform",
            "--csv",
            str(tmp_path / "absent.csv"),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 3


# ---------------------------------------------------------------------------
# config loading


def test_train_missing_config_exits_2(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot open config" in capsys.readouterr().err


def test_train_invalid_json_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_train_config_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"model": "\xe9"}')
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: config {cfg}: not UTF-8 text (")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_json_integer_past_digit_limit_exits_2(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text('{"model": {"lookback": ' + "1" * 5000 + "}}")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_train_deeply_nested_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 200000 + "]" * 200000)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "is not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["[1, 2]", "null", '"x"'])
def test_train_config_not_an_object_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text + "\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    got = type(json.loads(text)).__name__
    assert err == f"config error: config {cfg} must hold a JSON object, got {got}\n"
    assert not (tmp_path / "o").exists()


def test_train_unknown_section_exits_2(tmp_path, series_csv, capsys):
    cfg = write_run_config(tmp_path / "run.json", series_csv, extras={"x": 1})
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown config keys: extras" in capsys.readouterr().err


def test_train_missing_model_section_exits_2(tmp_path, series_csv, capsys):
    # An absent model section reads as {}, so its first required field is named.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"data": {"csv": str(series_csv)}}))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: model.lookback is required\n"
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_train_divisibility_error_names_constraint(tmp_path, series_csv, capsys):
    cfg = write_run_config(
        tmp_path / "run.json",
        series_csv,
        model={"lookback": 100, "levels": 3, "horizon": 4},
    )
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "100" in err and "divisible by 2^levels = 8" in err


@pytest.mark.parametrize(
    "model, words",
    [
        ({"levels": 20000}, "2^levels = 2^20000"),
        ({"branch_orders": [2000, 1]}, "order*levels must be at most 1023"),
        # The default orders 1..N count too: 2 * 512 > 1023.
        ({"levels": 512}, "derivative order 2 at levels = 512"),
    ],
)
def test_train_huge_levels_or_order_exits_2(tmp_path, series_csv, capsys, model, words):
    cfg = write_run_config(tmp_path / "run.json", series_csv, model=model)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and words in err and "Traceback" not in err


def test_train_long_mode_ignores_the_period_bound(tmp_path, series_csv, capsys):
    # The seasonal-naive reference only runs in short mode.
    cfg = write_run_config(
        tmp_path / "run.json",
        series_csv,
        metrics={"mode": "long", "period": 17},
        train={"max_epochs": 1},
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_train_dwt_ignores_orders_in_the_gain_bound(tmp_path, series_csv):
    # dwt forces every order to 0, so no gain can overflow.
    cfg = write_run_config(
        tmp_path / "run.json",
        series_csv,
        model={"transform_kind": "dwt", "branch_orders": [2000, 1]},
        train={"max_epochs": 1},
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_train_missing_data_section_exits_2(tmp_path, series_csv, capsys):
    cfg = write_run_config(tmp_path / "run.json", series_csv)
    doc = json.loads(cfg.read_text())
    del doc["data"]
    cfg.write_text(json.dumps(doc))
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing the data section" in capsys.readouterr().err


def test_train_missing_csv_exits_3(tmp_path):
    cfg = write_run_config(tmp_path / "run.json", tmp_path / "absent.csv")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
@pytest.mark.parametrize(
    "case, code, message",
    [
        ("channel-mismatch", 2, "has 2 channels"),
        ("missing-csv", 3, "cannot open"),
        ("split-too-short", 3, "too short for lookback"),
        ("empty-train-part", 3, "train part has 0 rows"),
    ],
)
def test_data_rejected_before_out_is_created(
    tmp_path, series_csv, run_config, capsys, command, case, code, message
):
    # The data CSV is read, split and windowed before --out is claimed, and
    # the rejection is one stderr line with no NumPy warning before it.
    if case == "channel-mismatch":
        bad = write_run_config(
            tmp_path / "bad.json", write_series_csv(tmp_path / "two.csv", 400, channels=2)
        )
    elif case == "missing-csv":
        bad = write_run_config(tmp_path / "bad.json", tmp_path / "absent.csv")
    elif case == "empty-train-part":
        # floor(400 * 0.001) = 0 train rows: nothing to standardize with,
        # even for eval, which windows only the test part.
        bad = write_run_config(
            tmp_path / "bad.json",
            series_csv,
            data={"split": {"kind": "ratio", "ratios": [0.001, 0.5, 0.499]}},
        )
    else:
        # 400 rows at 0.9/0.05/0.05 leave 20-row val and test splits, one
        # short of L + tau = 24.
        bad = write_run_config(
            tmp_path / "bad.json",
            series_csv,
            data={"split": {"kind": "ratio", "ratios": [0.9, 0.05, 0.05]}},
        )
    out = tmp_path / "o"
    argv = [command, "--config", str(bad), "--out", str(out)]
    if command == "eval":
        trained = run_train(tmp_path, run_config, "trained")
        argv += ["--checkpoint", str(trained / "checkpoint.bin")]
    elif command == "ablate":
        argv.append("--quiet")
    capsys.readouterr()
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code
    assert message in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


def test_relative_csv_resolves_against_config_dir(tmp_path):
    sub = tmp_path / "cfgdir"
    sub.mkdir()
    write_series_csv(sub / "series.csv", 200)
    cfg = write_run_config(sub / "run.json", "series.csv")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_out_from_config_with_flag_override(tmp_path, series_csv, capsys):
    cfg = write_run_config(
        tmp_path / "run.json", series_csv, out=str(tmp_path / "from_config")
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "checkpoint.bin").exists()
    assert (
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "flagged")])
        == 0
    )
    assert (tmp_path / "flagged" / "checkpoint.bin").exists()
    capsys.readouterr()
    # neither flag nor config entry: nowhere to write
    bare = write_run_config(tmp_path / "bare.json", series_csv)
    rc = main(["train", "--config", str(bare)])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_unknown_split_key_exits_2(tmp_path, series_csv, capsys):
    cfg = write_run_config(
        tmp_path / "run.json",
        series_csv,
        data={"split": {"kind": "ratio", "fraction": 0.5}},
    )
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown data.split keys: fraction" in capsys.readouterr().err


def test_split_given_as_a_bare_kind_exits_2(tmp_path, series_csv, capsys):
    # A split is always an object, {"kind": "ett_hourly"}, never the name alone.
    cfg = write_run_config(tmp_path / "run.json", series_csv, data={"split": "ett_hourly"})
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: config section data.split must be a JSON object" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"train": {"learnig_rate": 0.5}}, "unknown train keys: learnig_rate"),
        ({"model": {"brnach_orders": [3, 3]}}, "unknown model keys: brnach_orders"),
    ],
    ids=["train-typo", "model-typo"],
)
def test_unknown_model_or_train_key_exits_2(
    tmp_path, series_csv, capsys, overrides, message
):
    # A misspelt key must not train silently on the default it meant to set.
    cfg = write_run_config(tmp_path / "run.json", series_csv, **overrides)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"train": []},
        {"model": [16, 8]},
        {"data": "series.csv"},
        {"metrics": "long"},
        {"data": {"stride": "x"}},
        {"data": {"split": {"kind": "ratio", "ratios": ["a", 0.1, 0.1]}}},
        {"data": {"split": {"kind": "ratio", "ratios": 0.5}}},
        {"metrics": {"period": "x"}},
    ],
    ids=[
        "train-list", "model-list", "data-string", "metrics-string",
        "stride-string", "ratios-string", "ratios-number", "period-string",
    ],
)
def test_malformed_section_exits_2_without_traceback(
    tmp_path, series_csv, capsys, overrides
):
    cfg = write_run_config(tmp_path / "run.json", series_csv, **overrides)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("anchor", ["absolute", "relative"])
@pytest.mark.parametrize("field", ["data.csv", "config.out"])
def test_nul_in_a_config_path_exits_2(tmp_path, series_csv, capsys, field, anchor):
    # open() and Path reject a NUL only with ValueError, deep in the command.
    bad = (str(tmp_path / "x") if anchor == "absolute" else "x") + "\0y"
    if field == "data.csv":
        cfg = write_run_config(tmp_path / "run.json", bad, out="o")
    else:
        cfg = write_run_config(tmp_path / "run.json", series_csv, out=bad)
    before = sorted(tmp_path.iterdir())
    rc = main(["train", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"config error: {field} must not contain a NUL character")
    assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"train": {"learning_rate": "nan"}}, "learning_rate"),
        ({"train": {"learning_rate": "inf"}}, "learning_rate"),
        ({"train": {"adam_epsilon": "nan"}}, "adam_epsilon"),
        ({"train": {"adam_epsilon": "-inf"}}, "adam_epsilon"),
        ({"train": {"grad_clip": "nan"}}, "grad_clip"),
        ({"train": {"grad_clip": "inf"}}, "grad_clip"),
        ({"model": {"std_epsilon": 0}}, "std_epsilon"),
        ({"model": {"std_epsilon": "nan"}}, "std_epsilon"),
    ],
    ids=[
        "lr-nan", "lr-inf", "eps-nan", "eps-neginf", "clip-nan", "clip-inf",
        "std-eps-zero", "std-eps-nan",
    ],
)
def test_nonfinite_or_zero_bound_exits_2(tmp_path, series_csv, capsys, overrides, field):
    cfg = write_run_config(tmp_path / "run.json", series_csv, **overrides)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{field} must be finite and > 0" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"model": {"lookback": 32.7}}, "model.lookback"),
        ({"model": {"levels": True}}, "model.levels"),
        ({"model": {"seed": "3"}}, "model.seed"),
        ({"model": {"branch_orders": [1, 1.5]}}, "model.branch_orders[1]"),
        ({"train": {"batch_size": 16.5}}, "train.batch_size"),
        ({"train": {"max_epochs": True}}, "train.max_epochs"),
        ({"train": {"learning_rate": True}}, "train.learning_rate"),
        ({"data": {"stride": 2.5}}, "data.stride"),
        ({"data": {"standardize": "false"}}, "data.standardize"),
        ({"data": {"standardize": 0}}, "data.standardize"),
        ({"metrics": {"period": True}}, "metrics.period"),
        ({"data": {"csv": 123}}, "data.csv"),
        ({"model": {"transform_kind": ["wdt"]}}, "model.transform_kind"),
        ({"data": {"split": {"kind": 1}}}, "data.split.kind"),
        ({"metrics": {"mode": 1}}, "metrics.mode"),
        ({"out": 7}, "config.out"),
    ],
    ids=[
        "lookback-fraction", "levels-bool", "seed-string", "orders-fraction",
        "batch-fraction", "epochs-bool", "lr-bool", "stride-fraction",
        "standardize-string", "standardize-int", "period-bool", "csv-number",
        "kind-list", "split-kind-number", "mode-number", "out-number",
    ],
)
def test_config_numbers_read_strictly_exit_2(
    tmp_path, series_csv, capsys, overrides, field
):
    cfg = write_run_config(tmp_path / "run.json", series_csv, **overrides)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config error: {field} must be" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_integral_float_counts_accepted(tmp_path, series_csv):
    from wavets.cli import load_run_config

    cfg = write_run_config(
        tmp_path / "run.json", series_csv, model={"lookback": 16.0},
        data={"stride": 2.0},
    )
    run = load_run_config(str(cfg))
    assert run.model.lookback == 16 and type(run.model.lookback) is int
    assert run.data.stride == 2 and type(run.data.stride) is int


def test_load_splits_cuts_at_the_ett_hourly_borders(tmp_path, rng):
    # 14400 rows, the last border of the preset, so every row is used.
    values = rng.normal(size=(14400, 2))
    csv = tmp_path / "ett.csv"
    np.savetxt(csv, values, fmt="%.17g", delimiter=",", header="a,b", comments="")
    cfg = write_run_config(
        tmp_path / "run.json", csv, model={"channels": 2}, data={"split": {"kind": "ett_hourly"}}
    )
    run = load_run_config(str(cfg))
    run.ensure_valid(need_data=True)
    parts = load_splits(run)
    assert [part.length for part in parts] == [8640, 2880, 2880]
    mean, std = values[:8640].mean(axis=0), values[:8640].std(axis=0)
    for part, lo, hi in zip(parts, (0, 8640, 11520), (8640, 11520, 14400)):
        np.testing.assert_array_equal(part.values, (values[lo:hi] - mean) / std)


# ---------------------------------------------------------------------------
# train / eval


def run_train(tmp_path, cfg, name, extra=()):
    out = tmp_path / name
    rc = main(["train", "--config", str(cfg), "--out", str(out), *extra])
    assert rc == 0
    return out


def test_train_artifacts_and_determinism(tmp_path, run_config, capsys):
    out1 = run_train(tmp_path, run_config, "r1")
    out2 = run_train(tmp_path, run_config, "r2")
    capsys.readouterr()
    for name in (
        "checkpoint.bin",
        "effective_config.json",
        "run_meta.json",
        "metrics_train.txt",
        "metrics_val.txt",
        "summary.txt",
    ):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    line, body = (out1 / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = json.loads(line)
    assert header["version"] == 4
    assert len(body) == 8 * param_count(ModelConfig.from_dict(header["config"]))
    meta = json.loads((out1 / "run_meta.json").read_text())
    assert meta["version"] == 1
    assert "seconds" not in json.dumps(meta)
    assert len(meta["history"]["epochs"]) == 8


def test_train_seed_flag_overrides_both_seeds(tmp_path, run_config, capsys):
    base = run_train(tmp_path, run_config, "base")
    other = run_train(tmp_path, run_config, "other", extra=("--seed", "9"))
    capsys.readouterr()
    eff = json.loads((other / "effective_config.json").read_text())
    assert eff["model"]["seed"] == 9
    assert eff["train"]["seed"] == 9
    assert (base / "checkpoint.bin").read_bytes() != (
        other / "checkpoint.bin"
    ).read_bytes()


def test_eval_train_split_reproduces_summary(tmp_path, run_config, capsys):
    out = run_train(tmp_path, run_config, "r")
    summary = dict(
        line.split("=", 1)
        for line in (out / "summary.txt").read_text().splitlines()
    )
    capsys.readouterr()
    rc = main(
        ["eval", "--checkpoint", str(out / "checkpoint.bin"), "--split", "train"]
    )
    assert rc == 0
    printed = dict(
        line.split("=", 1)
        for line in capsys.readouterr().out.strip().splitlines()
        if "=" in line
    )
    assert abs(float(printed["mse"]) - float(summary["train_forecast_mse"])) < 1e-9
    assert abs(float(printed["mae"]) - float(summary["train_forecast_mae"])) < 1e-9


def test_eval_uses_checkpoint_model_config(tmp_path, series_csv, run_config, capsys):
    # A config that matches structurally but disagrees on std_epsilon must
    # not change predictions: the checkpoint's own config drives the model.
    out = run_train(tmp_path, run_config, "r")
    summary = dict(
        line.split("=", 1)
        for line in (out / "summary.txt").read_text().splitlines()
    )
    skewed = write_run_config(
        tmp_path / "skewed.json", series_csv, model={"std_epsilon": 0.5}
    )
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--config",
            str(skewed),
            "--split",
            "train",
        ]
    )
    assert rc == 0
    printed = dict(
        line.split("=", 1)
        for line in capsys.readouterr().out.strip().splitlines()
        if "=" in line
    )
    assert abs(float(printed["mse"]) - float(summary["train_forecast_mse"])) < 1e-9


def test_eval_sibling_config_fallback(tmp_path, run_config, capsys):
    out = run_train(tmp_path, run_config, "r")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin")]) == 0
    # checkpoint copied away from its effective_config.json: no fallback
    lone = tmp_path / "lone"
    lone.mkdir()
    shutil.copy(out / "checkpoint.bin", lone / "checkpoint.bin")
    rc = main(["eval", "--checkpoint", str(lone / "checkpoint.bin")])
    assert rc == 2
    assert "effective_config.json" in capsys.readouterr().err


def test_eval_horizon_mismatch_exits_2(tmp_path, series_csv, run_config, capsys):
    out = run_train(tmp_path, run_config, "r")
    other = write_run_config(
        tmp_path / "wide.json", series_csv, model={"horizon": 16}
    )
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--config",
            str(other),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "horizon" in err and "16" in err and "8" in err


def test_eval_short_metrics_flag(tmp_path, run_config, capsys):
    out = run_train(tmp_path, run_config, "r")
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--metrics",
            "short",
            "--period",
            "4",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "smape=" in text
    assert "mase=" in text
    assert "period=4" in text


@pytest.mark.parametrize("flags", [(), ("--metrics", "short", "--period", "4")], ids=["long", "short"])
def test_eval_rerun_writes_byte_identical_metrics(tmp_path, run_config, capsys, flags):
    out = run_train(tmp_path, run_config, "r")
    argv = ["eval", "--checkpoint", str(out / "checkpoint.bin"), *flags]
    assert main(argv + ["--out", str(tmp_path / "e1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "e2")]) == 0
    capsys.readouterr()
    first = (tmp_path / "e1" / "metrics.txt").read_bytes()
    assert first == (tmp_path / "e2" / "metrics.txt").read_bytes()
    assert (b"owa=" in first) == bool(flags)


def test_etth1_shape_train_then_eval_reruns_byte_identical(tmp_path, capsys):
    # configs/etth1.json, the ett_hourly split at L=336 and tau=96, on a
    # synthetic 14400-row, 7-channel hourly CSV with a date column.
    start = datetime(2016, 7, 1)
    lines = ["date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"]
    for t in range(14400):
        cells = (
            repr(math.sin(2.0 * math.pi * t / (24 + 7 * c)) + 0.1 * c + 1e-4 * t)
            for c in range(7)
        )
        lines.append(f"{start + timedelta(hours=t)}," + ",".join(cells))
    (tmp_path / "ett.csv").write_text("\n".join(lines) + "\n")
    doc = json.loads((REPO / "configs" / "etth1.json").read_text())
    doc["data"]["csv"] = str(tmp_path / "ett.csv")
    doc["data"]["stride"] = 24
    doc["train"]["max_epochs"] = 1
    cfg = tmp_path / "etth1.json"
    cfg.write_text(json.dumps(doc))
    # The test part is rows 11520-14400: (2880 - 432) // 24 + 1 windows.
    run = load_run_config(str(cfg))
    assert len(split_window_pairs(load_splits(run)[2], run)) == 103
    checkpoint = run_train(tmp_path, cfg, "train") / "checkpoint.bin"
    for out in ("e1", "e2"):
        assert main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    first = (tmp_path / "e1" / "metrics.txt").read_bytes()
    assert first == (tmp_path / "e2" / "metrics.txt").read_bytes()


def test_eval_short_period_past_lookback_exits_2_before_forecasting(
    tmp_path, run_config, capsys
):
    out = run_train(tmp_path, run_config, "r")
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(out / "checkpoint.bin")]
    rc = main(argv + ["--metrics", "short", "--period", "17", "--out", str(tmp_path / "e")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "metrics.period = 17 must be at most model.lookback = 16" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "e").exists()
    # The period equal to the lookback is the longest one allowed.
    assert main(argv + ["--metrics", "short", "--period", "16"]) == 0


def checkpoint_bytes(header: dict, body: bytes) -> bytes:
    """A checkpoint file laid out as save_checkpoint lays one out."""
    return json.dumps(header).encode() + b"\n" + body


def wdt_checkpoint(body=lambda raw: raw, **entries) -> bytes:
    """The pinned wdt checkpoint, its body replaced by body(its body) and
    its header updated with entries."""
    header, raw = pinned_checkpoint("wdt")
    return checkpoint_bytes({**header, **entries}, body(raw))


def nan_in(block_name: str, raw: bytes) -> bytes:
    """raw, the wdt body, with a NaN in the named band block's weight, in
    branch 2's first column."""
    header, _ = pinned_checkpoint("wdt")
    params = np.frombuffer(raw, "<f8").copy()
    block = dict(param_blocks(params, ModelConfig.from_dict(header["config"])))[block_name]
    block[0, block.shape[1] // 2] = np.nan
    return params.tobytes()


NOT_V4 = "is not a version-4 checkpoint: "
OLDER = NOT_V4 + "its first line is not valid JSON: Expecting property name"


@pytest.mark.parametrize(
    "content, message",
    [
        (lambda: wdt_checkpoint(lambda raw: raw[:-8]),
         "holds 395 parameter values, but its wdt config expects 396"),
        (lambda: wdt_checkpoint(lambda raw: raw + raw[:8]),
         "holds 397 parameter values, but its wdt config expects 396"),
        (lambda: wdt_checkpoint(lambda raw: raw + b"\0"),
         "holds 396.125 parameter values, but its wdt config expects 396"),
        (lambda: json.dumps(pinned_checkpoint("wdt")[0]).encode(),
         NOT_V4 + "no newline ends its first line"),
        (lambda: wdt_checkpoint(lambda raw: pinned_checkpoint("dft")[1]),
         "holds 468 parameter values, but its wdt config expects 396"),
        (lambda: wdt_checkpoint(lambda raw: nan_in("fru_lh[level2]", raw)),
         "fails validation: fru_lh[level2] contains non-finite entries"),
        (lambda: wdt_checkpoint(lambda raw: nan_in("fru_ll", raw)),
         "fails validation: fru_ll contains non-finite entries"),
        (lambda: wdt_checkpoint(version=3),
         NOT_V4 + "its first line gives version 3"),
        (lambda: older_checkpoint(1), OLDER),
        (lambda: older_checkpoint(2), OLDER),
        (lambda: older_checkpoint(3), OLDER),
    ],
    ids=["one-short", "one-extra", "one-byte-extra", "no-newline", "dft-payload", "nan",
         "nan-fru-ll", "v3-header", "v1", "v2", "v3"],
)
def test_eval_malformed_checkpoint_params_exits_3(
    tmp_path, run_config, capsys, content, message
):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(content())
    rc = main(["eval", "--checkpoint", str(path), "--config", str(run_config)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(f"data error: checkpoint {path} ")
    assert message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_eval_writes_metrics_file(tmp_path, run_config, capsys):
    out = run_train(tmp_path, run_config, "r")
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--out",
            str(tmp_path / "evalout"),
        ]
    )
    assert rc == 0
    text = (tmp_path / "evalout" / "metrics.txt").read_text()
    assert text.startswith("split=test\n")
    assert "mse=" in text


def eval_with_projection_weights(tmp_path, run_config, capsys, weight):
    """eval's exit code and stderr for a trained checkpoint whose projection
    weights are all set to weight; no metrics file may be written."""
    out = run_train(tmp_path, run_config, "r")
    path = out / "checkpoint.bin"
    params, config = load_checkpoint(str(path))
    param_blocks(params, config)[-1][1][:-1] = weight
    save_checkpoint(params, config, str(path))
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e")])
    assert not (tmp_path / "e" / "metrics.txt").exists()
    return rc, capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_eval_nonfinite_forecast_exits_4(tmp_path, run_config, capsys):
    # A valid checkpoint whose projection weights are 1e300: the forecasts
    # stay finite but the MSE overflows, and eval must fail instead of
    # writing mse=inf.
    rc, err = eval_with_projection_weights(tmp_path, run_config, capsys, 1e300)
    assert rc == 4
    assert len(err.splitlines()) == 1 and "forecast mse is non-finite" in err


@pytest.mark.filterwarnings("error")
def test_eval_overflowing_forecast_exits_4(tmp_path, run_config, capsys):
    # At 1e308 the forecasts themselves overflow, before any metric.
    rc, err = eval_with_projection_weights(tmp_path, run_config, capsys, 1e308)
    assert rc == 4
    assert err == "numerical error: the model produced a non-finite forecast\n"


@pytest.mark.parametrize("text", ["null", '"x"'])
def test_eval_checkpoint_not_an_object_exits_3(tmp_path, run_config, capsys, text):
    path = tmp_path / "checkpoint.bin"
    path.write_text(text + "\n")
    rc = main(["eval", "--checkpoint", str(path), "--config", str(run_config)])
    err = capsys.readouterr().err
    assert rc == 3
    assert NOT_V4 + "its first line must hold a JSON object" in err and "Traceback" not in err


def test_eval_checkpoint_not_utf8_exits_3(tmp_path, run_config, capsys):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b'{"version": 4, "config": "\xe9"}\n')
    rc = main(["eval", "--checkpoint", str(path), "--config", str(run_config)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"data error: checkpoint {path}: not UTF-8 text (")
    assert "Traceback" not in err


def test_eval_deeply_nested_checkpoint_exits_3(tmp_path, run_config, capsys):
    path = tmp_path / "checkpoint.bin"
    path.write_text("[" * 200000 + "]" * 200000 + "\n")
    rc = main(["eval", "--checkpoint", str(path), "--config", str(run_config)])
    err = capsys.readouterr().err
    assert rc == 3
    assert NOT_V4 + "its first line is not valid JSON" in err and "Traceback" not in err


def test_eval_checkpoint_malformed_stored_config_exits_3(tmp_path, run_config, capsys):
    # A defect in the checkpoint's own config is a data error like any other
    # defect in the file, not a run-config error; the message names the field.
    header, body = pinned_checkpoint("wdt")
    header["config"]["levels"] = "x"
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(checkpoint_bytes(header, body))
    rc = main(["eval", "--checkpoint", str(path), "--config", str(run_config)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "model.levels must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [{"levels": 20000}, {"branch_orders": [2000, 1]}])
def test_eval_checkpoint_huge_levels_or_order_exits_3(tmp_path, run_config, capsys, entry):
    header, body = pinned_checkpoint("wdt")
    header["config"].update(entry)
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(checkpoint_bytes(header, body))
    rc = main(["eval", "--checkpoint", str(path), "--config", str(run_config)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "fails validation" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# ablate


def test_ablate_table_and_determinism(tmp_path, run_config, capsys):
    rc = main(
        [
            "ablate",
            "--config",
            str(run_config),
            "--out",
            str(tmp_path / "a1"),
            "--quiet",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "ablate",
            "--config",
            str(run_config),
            "--out",
            str(tmp_path / "a2"),
            "--quiet",
        ]
    )
    assert rc == 0
    assert "wdt and dwt differ only in how the detail biases are scaled" in (
        capsys.readouterr().out
    )
    table = (tmp_path / "a1" / "ablation.csv").read_text().splitlines()
    assert table[0] == "kind,mse,mae"
    assert len(table) == 4
    assert [row.split(",")[0] for row in table[1:]] == ["wdt", "dwt", "dft"]
    for row in table[1:]:
        kind, mse_s, mae_s = row.split(",")
        assert float(mse_s) >= 0.0 and float(mae_s) >= 0.0
    assert (tmp_path / "a1" / "ablation.csv").read_bytes() == (
        tmp_path / "a2" / "ablation.csv"
    ).read_bytes()
    for kind in ("wdt", "dwt", "dft"):
        assert (tmp_path / "a1" / kind / "checkpoint.bin").exists()


def test_ablate_short_mode_table(tmp_path, series_csv, capsys):
    cfg = write_run_config(
        tmp_path / "run.json", series_csv, train={"max_epochs": 2},
        metrics={"mode": "short", "period": 4},
    )
    for out in ("a1", "a2"):
        rc = main(["ablate", "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"])
        assert rc == 0
    capsys.readouterr()
    first = (tmp_path / "a1" / "ablation.csv").read_bytes()
    assert first == (tmp_path / "a2" / "ablation.csv").read_bytes()
    table = first.decode().splitlines()
    assert table[0] == "kind,mse,mae,smape,mase,owa"
    assert len(table) == 4
    assert [row.split(",")[0] for row in table[1:]] == ["wdt", "dwt", "dft"]
    for row in table[1:]:
        assert all(float(cell) >= 0.0 for cell in row.split(",")[1:])


def test_ablate_dwt_variant_equals_orders_forced_to_zero(
    tmp_path, series_csv, run_config, capsys
):
    rc = main(
        [
            "ablate",
            "--config",
            str(run_config),
            "--out",
            str(tmp_path / "a"),
            "--quiet",
        ]
    )
    assert rc == 0
    zero_cfg = write_run_config(
        tmp_path / "zero.json",
        series_csv,
        model={"transform_kind": "wdt", "branch_orders": [0, 0]},
    )
    out = run_train(tmp_path, zero_cfg, "zero_run")
    capsys.readouterr()
    assert (tmp_path / "a" / "dwt" / "metrics_val.txt").read_bytes() == (
        out / "metrics_val.txt"
    ).read_bytes()
    assert (tmp_path / "a" / "dwt" / "summary.txt").read_bytes() == (
        out / "summary.txt"
    ).read_bytes()


def test_ablate_checks_every_variant_before_writing(tmp_path, series_csv, capsys):
    # Valid for dft, but 36 is not divisible by 2^3 for the wavelet variants.
    cfg = write_run_config(
        tmp_path / "run.json",
        series_csv,
        model={"transform_kind": "dft", "lookback": 36, "horizon": 12, "levels": 3},
    )
    out = tmp_path / "a"
    rc = main(["ablate", "--config", str(cfg), "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "lookback = 36 must be divisible by 2^levels = 8" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("branches", [10**12, 10**15])
@pytest.mark.parametrize("kind", ["dwt", "dft"])
def test_model_too_large_to_allocate_exits_2(tmp_path, capsys, kind, branches):
    # 10**12 branches at L+tau = 320 need over 2^59 bytes of parameters,
    # past any 64-bit address space, so the allocation fails everywhere;
    # 10**15 need more bytes than NumPy can even count. train allocates
    # the vector after --out is claimed, and the failure removes the empty
    # directory again. The wdt gains overflow first, which ablate meets in
    # its wdt variant before the claim.
    series = write_series_csv(tmp_path / "series.csv", 2400)
    model = {"transform_kind": kind, "branches": branches, "lookback": 256, "horizon": 64}
    cfg = write_run_config(tmp_path / "run.json", series, model=model)
    count = param_count(load_run_config(str(cfg)).model)
    assert 8 * count > 2**59
    for command, words in (
        ("train", f"the {kind} model has {count} parameters"),
        ("ablate", "must be at most 1023"),
    ):
        out = tmp_path / command
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, command
        assert err.startswith("config error: ") and words in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


def test_ablate_reads_the_csv_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_load_csv(path):
        calls.append(path)
        return load_csv(path)

    monkeypatch.setattr("wavets.cli.load_csv", counting_load_csv)
    config = Path(__file__).resolve().parent.parent / "configs" / "tiny_synthetic.json"
    rc = main(["ablate", "--config", str(config), "--out", str(tmp_path / "a"), "--quiet"])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1
    for kind in ("wdt", "dwt", "dft"):
        assert (tmp_path / "a" / kind / "checkpoint.bin").exists()


# ---------------------------------------------------------------------------
# gradcheck


def gradcheck_config(tmp_path, **model_overrides):
    """configs/gradcheck.json itself, or a copy of it in tmp_path with
    model_overrides applied."""
    shipped = REPO / "configs" / "gradcheck.json"
    if not model_overrides:
        return shipped
    doc = json.loads(shipped.read_text())
    doc["model"].update(model_overrides)
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps(doc))
    return cfg


# The shipped config and copies of it with every other transform kind and
# with one branch.
SHIPPED_GRADCHECK = {
    "shipped": {},
    "dwt": {"transform_kind": "dwt"},
    "dft": {"transform_kind": "dft"},
    "n1": {"branches": 1},
}


@pytest.mark.parametrize("overrides", SHIPPED_GRADCHECK.values(), ids=SHIPPED_GRADCHECK)
def test_gradcheck_passes_and_lists_every_block(tmp_path, capsys, overrides):
    cfg = gradcheck_config(tmp_path, **overrides)
    rc = main(["gradcheck", "--config", str(cfg)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split()[0] for ln in lines if not ln.startswith("overall")]
    # One line per parameter block, in name order.
    layout = param_layout(load_run_config(str(cfg)).model)
    assert names == sorted(name for name, _, _ in layout)
    assert lines[-1].endswith("pass")


@pytest.mark.parametrize("overrides", SHIPPED_GRADCHECK.values(), ids=SHIPPED_GRADCHECK)
def test_gradcheck_corrupt_block_exits_1(tmp_path, monkeypatch, capsys, overrides):
    corrupt_projection_gradient(monkeypatch)
    cfg = gradcheck_config(tmp_path, **overrides)
    rc = main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "g")])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("FAIL")
    assert [ln for ln in lines if ln.endswith("FAIL")][0].startswith("projection ")
    # A tolerance failure is a result, not an error: its report stays.
    assert (tmp_path / "g" / "gradcheck.txt").read_text().splitlines() == lines


@pytest.mark.parametrize("errors", [(float("nan"), 0.0), (0.0, float("nan"))])
def test_gradcheck_nan_error_fails_overall(tmp_path, monkeypatch, capsys, errors):
    # A NaN block error is no pass, wherever it falls in the report.
    report = dict(zip(("fru_ll", "projection"), errors))
    monkeypatch.setattr("wavets.cli.gradient_check", lambda *args, **kwargs: report)
    rc = main(["gradcheck", "--config", str(gradcheck_config(tmp_path))])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("FAIL")


def test_gradcheck_rejects_large_dims(tmp_path, capsys):
    cfg = gradcheck_config(tmp_path, lookback=32, horizon=16)
    rc = main(["gradcheck", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lookback=32" in err


@pytest.mark.parametrize("model", [{"levels": 20000}, {"branch_orders": [2000, 1]}])
def test_gradcheck_huge_levels_or_order_exits_2(tmp_path, capsys, model):
    rc = main(["gradcheck", "--config", str(gradcheck_config(tmp_path, **model))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and "Traceback" not in err


def writing_argv(command, tmp_path, csv, cfg):
    """The argv of one writing command, less its --out; eval first trains
    cfg for a checkpoint."""
    if command == "eval":
        checkpoint = run_train(tmp_path, cfg, "r") / "checkpoint.bin"
        return ["eval", "--checkpoint", str(checkpoint)]
    return {
        "transform": ["transform", "--csv", str(csv)],
        "scalogram": ["scalogram", "--csv", str(csv)],
        "train": ["train", "--config", str(cfg)],
        "ablate": ["ablate", "--config", str(cfg), "--quiet"],
        "gradcheck": ["gradcheck", "--config", str(gradcheck_config(tmp_path))],
    }[command]


# transform and eval with --out on a file are contract rows.
OUT_ON_A_FILE = {
    f"{command}-{'beneath_file' if beneath else 'file'}": (command, beneath)
    for command in ("transform", "scalogram", "train", "eval", "ablate", "gradcheck")
    for beneath in (False, True)
    if beneath or command not in ("transform", "eval")
}


@pytest.mark.parametrize("command, beneath", OUT_ON_A_FILE.values(), ids=OUT_ON_A_FILE)
def test_out_on_an_existing_file_exits_2(
    tmp_path, series_csv, run_config, capsys, command, beneath
):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if beneath else blocker
    argv = writing_argv(command, tmp_path, series_csv, run_config)
    capsys.readouterr()
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"cannot create output directory {out}" in captured.err
    assert "Traceback" not in captured.err
    # The directory is claimed before any work, so no report reaches stdout.
    assert captured.out == ""
    assert blocker.read_text() == "keep\n"


def tiny_one_epoch_config(tmp_path):
    """configs/tiny_synthetic.json trained for one epoch."""
    doc = json.loads((REPO / "configs" / "tiny_synthetic.json").read_text())
    doc["data"]["csv"] = str(TINY_CSV)
    doc["train"]["max_epochs"] = 1
    cfg = tmp_path / "tiny_one_epoch.json"
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.mark.parametrize(
    "command, artifact",
    [
        ("transform", "coefficients.csv"),
        ("scalogram", "scalogram.csv"),
        ("train", "checkpoint.bin"),
        ("ablate", "ablation.csv"),
        ("gradcheck", "gradcheck.txt"),
    ],
)
def test_failed_artifact_write_exits_2(tmp_path, capsys, command, artifact):
    # The directory is claimed, but a directory sits where one of its files
    # goes, so the write itself fails.
    argv = writing_argv(command, tmp_path, TINY_CSV, tiny_one_epoch_config(tmp_path))
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    capsys.readouterr()
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("config error: cannot write output: ")
    assert artifact in captured.err and "Traceback" not in captured.err
    # The report is printed only once its files are written; ablate has
    # printed the block of each variant it finished.
    if command != "ablate":
        assert captured.out == ""


@pytest.mark.skipif(not Path("/proc/self/mem").exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("flag", ["--csv", "--checkpoint", "--config"])
def test_read_that_fails_after_open_exits_3(tmp_path, capsys, flag):
    # /proc/self/mem opens, but reading from offset 0 fails with EIO: a
    # failed read, not a failed write. A run config that cannot be read is
    # a config error.
    argv, code, words = {
        "--csv": (["transform"], 3, "data error: cannot read /proc"),
        "--checkpoint": (["eval"], 3, "data error: cannot read checkpoint /proc"),
        "--config": (["train"], 2, "config error: cannot read config /proc"),
    }[flag]
    rc = main(argv + [flag, "/proc/self/mem", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(words) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["config", "checkpoint"])
def test_byte_order_mark_is_dropped(tmp_path, run_config, capsys, kind):
    # The CSV, the run config and the checkpoint share one reader, which
    # drops a leading UTF-8 byte order mark from each of them.
    if kind == "config":
        original = REPO / "configs" / "gradcheck.json"
        argv = ["gradcheck", "--config"]
    else:
        original = run_train(tmp_path, run_config, "r") / "checkpoint.bin"
        argv = ["eval", "--config", str(run_config), "--checkpoint"]
    marked = tmp_path / f"bom_{original.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    capsys.readouterr()
    results = [(main(argv + [str(path)]), capsys.readouterr()) for path in (original, marked)]
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1].err == ""


# transform is a contract row.
@pytest.mark.parametrize("command", ["scalogram", "train", "eval", "ablate", "gradcheck"])
def test_empty_out_exits_2(tmp_path, series_csv, capsys, monkeypatch, command):
    # An explicit --out "" is a bad flag: it neither falls back on the
    # config's out entry nor reaches a writer as "no directory".
    cfg = write_run_config(tmp_path / "run.json", series_csv, out="from_config")
    argv = writing_argv(command, tmp_path, series_csv, cfg)
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    rc = main(argv + ["--out", ""])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error: --out is empty" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "from_config").exists()
    assert list(work.iterdir()) == []


def test_out_flag_wins_over_the_config_entry(tmp_path, series_csv, capsys):
    cfg = write_run_config(tmp_path / "run.json", series_csv, out="from_config")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "checkpoint.bin").exists()
    assert not (tmp_path / "from_config").exists()
    # Without the flag the entry is the directory, relative to the config.
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "checkpoint.bin").exists()
    # gradcheck's --out is flag-only: the entry creates nothing.
    doc = json.loads(gradcheck_config(tmp_path).read_text())
    gc = tmp_path / "gc.json"
    gc.write_text(json.dumps({**doc, "out": "gc_from_config"}))
    assert main(["gradcheck", "--config", str(gc)]) == 0
    assert not (tmp_path / "gc_from_config").exists()


def test_train_without_any_out_exits_2(tmp_path, run_config, capsys):
    rc = main(["train", "--config", str(run_config)])
    assert rc == 2
    assert "no output directory" in capsys.readouterr().err


def test_gradcheck_report_file(tmp_path, capsys):
    cfg = gradcheck_config(tmp_path)
    rc = main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "g")])
    assert rc == 0
    capsys.readouterr()
    assert "overall max" in (tmp_path / "g" / "gradcheck.txt").read_text()


# ---------------------------------------------------------------------------
# numerical failure


@pytest.mark.filterwarnings("error")
def test_train_nonfinite_loss_exits_4(tmp_path, series_csv, capsys):
    cfg = write_run_config(
        tmp_path / "hot.json",
        series_csv,
        train={"learning_rate": 1e200, "max_epochs": 3, "patience": 3},
    )
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 4
    assert len(err.splitlines()) == 1 and "non-finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_train_nonfinite_validation_loss_exits_4(tmp_path, series_csv, capsys):
    # One batch holds all 129 train windows, so the only step's loss is
    # finite; the step at learning rate 1e300 then sends the validation
    # loss to inf.
    cfg = write_run_config(
        tmp_path / "hot.json",
        series_csv,
        train={"learning_rate": 1e300, "batch_size": 256, "max_epochs": 3, "patience": 3},
    )
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == "numerical error: non-finite validation loss at epoch 1\n"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# a failed run removes the directories it created


def hot_train(tmp_path, series_csv, out):
    """train at learning rate 1e300, which exits 4 after claiming out."""
    cfg = write_run_config(tmp_path / "hot.json", series_csv, train={"learning_rate": 1e300})
    return main(["train", "--config", str(cfg), "--out", str(out)])


def test_failed_run_removes_every_level_it_created(tmp_path, series_csv, capsys):
    assert hot_train(tmp_path, series_csv, tmp_path / "a" / "b" / "c") == 4
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_failed_run_keeps_the_directories_it_found(tmp_path, series_csv, capsys):
    existing = tmp_path / "existing"
    existing.mkdir()
    assert hot_train(tmp_path, series_csv, existing) == 4
    assert hot_train(tmp_path, series_csv, existing / "new" / "run") == 4
    assert existing.is_dir() and list(existing.iterdir()) == []


def test_failed_ablate_keeps_what_earlier_variants_wrote(
    tmp_path, run_config, monkeypatch, capsys
):
    # The dwt variant runs out of memory once wdt has written its
    # artifacts: those stay, and the empty dwt and dft directories go.
    exact = wavets.cli.train

    def dwt_out_of_memory(model_config, *args):
        if model_config.transform_kind == "dwt":
            raise MemoryError()
        return exact(model_config, *args)

    monkeypatch.setattr(wavets.cli, "train", dwt_out_of_memory)
    out = tmp_path / "a"
    rc = main(["ablate", "--config", str(run_config), "--out", str(out), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == "config error: out of memory: allocation failed\n"
    assert sorted(path.name for path in out.iterdir()) == ["effective_config.json", "wdt"]
    assert (out / "wdt" / "checkpoint.bin").exists()
