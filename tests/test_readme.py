"""The README's library examples run against the current code."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    """The Python blocks of the README's `## Library` section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_examples_run_and_round_trip():
    blocks = library_blocks()
    assert blocks
    namespace: dict = {}
    # Later blocks build on the names of earlier ones, as a reader would.
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert np.max(np.abs(namespace["back"] - namespace["x"])) <= 1e-9
    out, same = namespace["out"], namespace["same"]
    assert np.max(np.abs(same - out)) <= 1e-10 * np.max(np.abs(out))
