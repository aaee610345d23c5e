"""wavets benchmark: one workload, one process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train_wdt --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. The run writes its seeded inputs to a scratch directory
under `.perfbench_out/`, then for `--seconds` repeats a closed-loop cycle
of one set-up (a fresh import of the program and ingest of the inputs)
and one operation, and checks every operation's outputs. The last line of
standard output is one JSON object: `correct`, `attempted` and `failed`
(operations) and `metrics`. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` they are per-layer self times from
spans taken around the program's public functions, plus the tracing
overhead. Lines before it give every figure by its workload's own name,
the environment and the seed; the full record, spans included, goes to
`.perfbench_out/<workload>-seed<seed>-trace<t>.json`.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
program's source is not there.
"""

from __future__ import annotations

import os

# Pin BLAS before NumPy is imported, as tests/conftest.py does: one thread
# means a fixed reduction order and no worker threads.
THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import counts  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROGRAM_MODULES = ("cli", "data", "errors", "metrics", "model", "train", "wavelet", "wdt")
MIN_CYCLES = 3

# End-to-end metric -> unit; README.md defines each one per workload.
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "artifact_mb": "MB", "peak_rss_mb": "MB"}


def import_program() -> SimpleNamespace:
    """Import the program afresh from `src/`, so each set-up pays its import."""
    for name in [n for n in sys.modules if n == "wavets" or n.startswith("wavets.")]:
        del sys.modules[name]
    package = importlib.import_module("wavets")
    if Path(package.__file__).resolve().parent != (SRC / "wavets").resolve():
        raise ImportError(f"wavets imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"wavets.{name}") for name in PROGRAM_MODULES}
    )


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def git_commit() -> str:
    """HEAD read from the files under .git; no process is started."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


class Runner:
    """Drives one workload: cycles of one set-up and one operation, checked."""

    def __init__(self, workload, negative_control: bool) -> None:
        self.workload = workload
        self.negative_control = negative_control
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cycles(self, seconds: float, tracer: tracing.Tracer | None) -> list[dict]:
        """Set-up plus operation, back to back, while another cycle still fits
        in `seconds`, and at least MIN_CYCLES times.

        Each cycle imports the program afresh and ingests its inputs, so set-
        ups are spread over the run like the operations and both medians see
        the same machine.
        """
        records: list[dict] = []
        durations: list[float] = []
        deadline = perf_counter() + seconds
        while True:
            index = len(records)
            cycle_start = perf_counter()
            if tracer is not None:
                tracer.phase = ("setup", index)
            m = import_program()
            if tracer is not None:
                tracer.install(m)
            try:
                state = self.workload.setup(m)
                setup_s = perf_counter() - cycle_start
                if tracer is not None:
                    tracer.phase = ("op", index)
                self.attempted += 1
                t0 = perf_counter()
                try:
                    record, outputs = self.workload.op(m, state)
                    record["wall_s"] = perf_counter() - t0
                    record["setup_s"] = setup_s
                except m.errors.WaveTSError as exc:
                    record, outputs = None, None
                    problems = [f"{type(exc).__name__}: {exc}"]
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if record is not None:
                if self.negative_control:
                    self.workload.corrupt(outputs)
                problems = self.workload.check(state, outputs)
                records.append(record)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            durations.append(perf_counter() - cycle_start)
            enough = len(records) >= MIN_CYCLES or not records
            if enough and perf_counter() + statistics.median(durations) > deadline:
                return records


def summarise(records: list[dict], key: str) -> list[float]:
    if key == "rate":
        return [r["items"] / r["busy_s"] for r in records]
    return [r[key] for r in records]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="few-second shapes for the benchmark's tests"
    )
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="corrupt every operation's output before checking it; must fail",
    )
    args = parser.parse_args(argv)

    if not (SRC / "wavets" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'wavets'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shape = inputs.TINY if args.tiny else inputs.FULL
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](shape, args.seed, work)
        program = import_program()
        workload.generate(program)
        workload.prepare(program)
        runner = Runner(workload, args.negative_control)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is None:
            records = runner.cycles(args.seconds, None)
            traced = []
        else:
            # Half untraced, half traced: the ratio of their operation
            # times is the tracing overhead.
            records = runner.cycles(args.seconds / 2, None)
            traced = runner.cycles(args.seconds / 2, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = environment()
    computed = counts.computed_counts(shape)
    named = {
        name: (median(summarise(records, key)), unit, len(records))
        for name, (key, unit) in workload.named.items()
    }
    named["setup_s"] = (median(summarise(records, "setup_s")), "s", len(records))
    named["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    error_rate = runner.failed / runner.attempted

    if tracer is None:
        values = {
            "setup_s": median(summarise(records, "setup_s")),
            "items_per_s": median(summarise(records, "rate")),
            "artifact_mb": median(summarise(records, "mb")),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        overhead = median(summarise(traced, "wall_s")) / median(summarise(records, "wall_s"))
        values = tracing.layer_metrics(tracer, len(traced))
        values["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
        values.update(computed)
        units = dict(tracing.LAYER_UNITS, **counts.COMPUTED_UNITS)
        units["trace.overhead_pct"] = "%"

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} shape={'tiny' if args.tiny else 'full'}"
    )
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"operations attempted={runner.attempted} failed={runner.failed} "
        f"error_rate={error_rate!r}"
    )
    for problem in runner.problems[:10]:
        print(f"check failed: {problem}")
    for name, (value, unit, n) in named.items():
        print(f"{name} {value!r} {unit} (median of {n})")
    for name, value in computed.items():
        print(f"{name} {value!r} {counts.COMPUTED_UNITS[name]} (computed from shapes)")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": "tiny" if args.tiny else "full",
        "negative_control": args.negative_control,
        "environment": env,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": error_rate,
        "problems": runner.problems,
        "cycles": records,
        "traced_cycles": traced,
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "computed": computed,
        "metrics": values,
        "spans": tracer.spans if tracer is not None else [],
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record) + "\n")
    print(f"record {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
