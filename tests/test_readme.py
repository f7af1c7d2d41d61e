"""The README documents what the package provides, and only that."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import sctubes
from sctubes.cli_io import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_functions() -> list[str]:
    """Backticked names before the colon of each "What you get" item."""
    section = README.read_text().split("## What you get", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- (.*?):", section, flags=re.MULTILINE | re.DOTALL)
    return [name for item in items for name in re.findall(r"`(\w+)`", item)]


def test_every_listed_function_exists():
    names = documented_functions()
    assert "roy_k_sample" in names and "observed_statistic" in names
    missing = [n for n in names if not callable(getattr(sctubes, n, None))]
    assert missing == []


def test_listed_functions_are_the_exported_functions():
    exported = {name for name in sctubes.__all__
                if callable(obj := getattr(sctubes, name))
                and not isinstance(obj, type)}
    assert set(documented_functions()) == exported


def documented_flags() -> dict[str, set[str]]:
    """Each subcommand's flags from the "Subcommand | Flags" table, with
    "those of `cmd`, plus ..." expanded from an earlier row."""
    text = README.read_text()
    table = text.split("| Subcommand | Flags |", 1)[1].split("\n\n", 1)[0]
    flags: dict[str, set[str]] = {}
    for line in table.splitlines()[2:]:
        names, cell = line.strip("| ").split(" | ")
        own = set(re.findall(r"`(--[\w-]+)`", cell))
        inherited = re.match(r"those of `(\w+)`", cell)
        if inherited:
            own |= flags[inherited.group(1)]
        for name in re.findall(r"`(\w+)`", names):
            flags[name] = own
    return flags


def parser_flags() -> dict[str, set[str]]:
    """Each subcommand's long options as the command-line parser has them."""
    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions
                   for opt in action.option_strings if opt != "--help"
                   and opt.startswith("--")}
            for name, parser in sub.choices.items()}


def test_flag_table_matches_parser():
    documented = documented_flags()
    assert documented["tube"] >= {"--alpha", "--family", "--pair"}
    assert documented == parser_flags()


def test_cli_example_prints_the_documented_output(tmp_path, monkeypatch, capsys):
    """README's data script, then its ``compare`` command, print README's
    output block line for line."""
    section = README.read_text().split("## Command line", 1)[1]
    blocks = re.findall(r"```\w*\n(.*?)```", section, flags=re.DOTALL)
    script, command, output = blocks[:3]
    monkeypatch.chdir(tmp_path)
    exec(script, {})
    argv = shlex.split(command)
    assert argv[0] == "sctubes"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out.splitlines() == output.splitlines()
