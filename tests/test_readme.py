import argparse
import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from isfl.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def cli_block() -> list[str]:
    """The command lines of the sh block under the README's "CLI" heading,
    without their comments."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def test_cli_block_parses_and_names_every_subcommand():
    parser = build_parser()
    named = set()
    for line in cli_block():
        prog, *argv = shlex.split(line)
        assert prog == "isfl"
        try:
            named.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README CLI line does not parse: {line}")
    (subcommands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert named == set(subcommands.choices)


def test_library_example_prints_a_final_accuracy():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    acc = float(out.getvalue().strip())
    assert math.isfinite(acc) and 0.0 <= acc <= 1.0
