"""README stays in step with the code: every command line it shows parses
against the real CLI, every repo path it names exists, its scenario file
examples load and together show every key the loader reads, and its
library example runs."""

import argparse
import json
import pathlib
import re

from delaysync import parse_config
from delaysync.cli import build_parser
from delaysync.config import _KEYS

ROOT = pathlib.Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def shown_command_lines():
    """Every line of a fenced block in README that runs `delaysync`, and
    every inline-code span in its prose that does (a span may wrap)."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", README, flags=re.M | re.S)
    lines += [" ".join(span.split()) for span in re.findall(r"`([^`]+)`",
                                                            prose)]
    return [line for line in lines if line.startswith("delaysync ")]


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


def test_scenario_file_example_parses():
    # the first example is a whole scenario; a later one shows a section
    # that replaces the first example's (a graph gives one of its forms)
    section = README.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    blocks = [json.loads(block) for block in
              re.findall(r"^```json\n(.*?)^```", section, re.M | re.S)]
    assert len(blocks) == 2
    shown = {}
    for block in blocks:
        cfg = parse_config({**blocks[0], **block})
        assert cfg.graph.n_agents == len(cfg.delays.kappa) == 2
        for name, value in block.items():
            if isinstance(value, dict):
                shown.setdefault(name, set()).update(value)
            else:
                shown[name] = None
    # together the examples show every key the loader reads, by section
    assert shown == _KEYS


def test_quick_library_example_runs(capsys):
    section = README.split("## Quick library example", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.rstrip().endswith("True")
