"""The README's library examples run against the current code, and its
command-line section names every flag the parser accepts."""

import argparse
import re
from pathlib import Path

import numpy as np

from wavets.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title: str) -> str:
    """The README's `## title` section, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_blocks() -> list[str]:
    """The Python blocks of the README's `## Library` section, in order."""
    return re.findall(r"```python\n(.*?)```", readme_section("Library"), flags=re.DOTALL)


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


def test_command_line_section_names_every_flag():
    section = readme_section("Command line")
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert flags
    missing = [flag for flag in flags if not re.search(rf"{flag}(?![\w-])", section)]
    assert sorted(missing) == []
