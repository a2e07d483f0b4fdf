"""README stays in step with the code: every command line it shows parses
against the real CLI, and every repo path it names exists."""

import argparse
import pathlib
import re

from delaysync.cli import build_parser

ROOT = pathlib.Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def shown_command_lines():
    """Every line of a fenced block in README that runs `delaysync`."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.strip().startswith("delaysync ")]


def subcommand_options():
    """{subcommand: its option strings} as `cli.build_parser()` knows them."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: set(p._option_string_actions)
            for name, p in sub.choices.items()}


def test_command_line_block_shows_every_subcommand():
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    shown = {line.split()[1] for line in section.splitlines()
             if line.startswith("delaysync ")}
    assert shown == set(subcommand_options())


def test_shown_commands_and_flags_exist():
    known = subcommand_options()
    lines = shown_command_lines()
    assert lines
    for line in lines:
        command = line.split()[1]
        assert command in known, line
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert flag in known[command], (flag, line)


def test_named_repo_paths_exist():
    paths = [path for span in re.findall(r"`([^`\n]+)`", README)
             for path in re.findall(
                 r"(?<![\w./-])((?:src|tests|scripts|perfbench)/[\w./-]*)",
                 span)]
    assert paths
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing
