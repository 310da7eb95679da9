import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import isfl
from isfl.cli import ExperimentConfig, build_parser

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


def config_block() -> dict:
    """The JSON block under the README's "defaults shown" sentence."""
    section = README.read_text(encoding="utf-8").split(
        "A config is one flat JSON object; defaults shown:", 1
    )[1]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1))


def test_config_block_is_the_config_defaults_key_for_key():
    def typed(config: dict) -> list:
        return [(key, type(value), value) for key, value in config.items()]

    assert typed(config_block()) == typed(dataclasses.asdict(ExperimentConfig()))


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


def test_every_private_or_qualified_name_resolves():
    """Each backticked README name that starts with ``_`` or ``isfl.`` is an
    attribute of an isfl module (``_Run.end_round``) or a path from the
    package (``isfl.cli``), so the README names no deleted code."""
    modules = [
        importlib.import_module(f"isfl.{m.name}") for m in pkgutil.iter_modules(isfl.__path__)
    ]

    def found(owner, path: list[str]) -> bool:
        for part in path:
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    names = set(re.findall(r"`((?:_|isfl\.)[\w.]+)`", README.read_text(encoding="utf-8")))
    unresolved = sorted(
        name for name in names
        if not any(found(owner, name.removeprefix("isfl.").split("."))
                   for owner in ([isfl] if name.startswith("isfl.") else modules))
    )
    assert names and not unresolved
