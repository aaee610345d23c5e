"""Tests of the benchmark itself, at the tiny shape.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import counts  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny_run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--tiny", *extra, cwd=cwd,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = tiny_run(workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        lines = proc.stdout.splitlines()
        for name, (_, unit) in WORKLOADS[workload].named.items():
            assert any(
                line.startswith(f"{name} ") and f" {unit} (" in line for line in lines
            ), name
        assert any(line.startswith("operations ") and "error_rate=0.0" in line for line in lines)
        assert any(line.startswith("env ") and '"nproc"' in line for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_negative_control_fails_every_operation(workload):
    proc = tiny_run(workload, "--negative-control")
    assert proc.returncode == 1
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_the_program_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = tiny_run("eval_dft", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        inputs.write_frame_inputs(tmp_path / name, inputs.TINY, "wdt", seed)
        inputs.write_long_series(tmp_path / name, inputs.TINY, seed)
    for file in ("etth1.csv", "long.csv"):
        a, b, c = ((tmp_path / d / file).read_bytes() for d in "abc")
        assert a == b != c


def test_full_frame_has_ett_shape():
    values = inputs.seasonal_values(inputs.np.random.default_rng(0), inputs.FULL.rows, 7)
    assert values.shape == (17420, 7)
    s = inputs.FULL
    assert [s.windows_in(r) for r in s.split_rows] == [8209, 2449, 2449]


def test_computed_param_count_matches_a_checkpoint(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from wavets import cli, model

    def numbers(node) -> int:
        if isinstance(node, dict):
            return sum(numbers(v) for k, v in node.items() if k not in ("config", "version"))
        if isinstance(node, list):
            return sum(numbers(v) for v in node)
        return 1 if isinstance(node, float) else 0

    for kind in ("wdt", "dft"):
        config = tmp_path / f"{kind}.json"
        inputs.write_run_config(config, "unused.csv", inputs.TINY, kind, 0)
        run = cli.load_run_config(str(config))
        path = tmp_path / f"{kind}.ckpt"
        model.save_checkpoint(model.init_params(run.model, 0), run.model, str(path))
        assert numbers(json.loads(path.read_text())) == counts.param_count(inputs.TINY, kind)


def test_self_time_excludes_children():
    def child():
        sleep(0.02)

    def parent():
        sleep(0.01)
        ns.mod.child()

    ns = SimpleNamespace(mod=SimpleNamespace(child=child, parent=parent))
    tracer = tracing.Tracer()
    tracer.install(ns, sites=(("mod", "child", "c"), ("mod", "parent", "p")))
    tracer.phase = ("op", 0)
    t0 = perf_counter()
    ns.mod.parent()
    total = perf_counter() - t0
    tracer.uninstall()
    assert ns.mod.child is child and ns.mod.parent is parent
    times = tracer.self_times()[("op", 0)]
    assert times["c"][1] == times["p"][1] == 1
    assert 0.02 <= times["c"][0] < total
    assert 0.01 <= times["p"][0] <= total - 0.02
