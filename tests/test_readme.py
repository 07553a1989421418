"""The README's examples are executable.

Every ```sh line that starts with ``goodnet `` must parse.  One that is
followed by ``# `` lines is a CLI example: those lines are its exact
stdout.  The ```python block is the library example and must run as
written.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from goodnet.cli import bind_demo, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def cli_commands():
    """(argv, expected stdout) for every `goodnet ...` line in the README;
    the expected stdout is empty when no `# ` lines follow."""
    commands = []
    for block in code_blocks("sh"):
        lines = block.splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("goodnet "):
                continue
            expected = []
            for follow in lines[k + 1:]:
                if not follow.startswith("# "):
                    break
                expected.append(follow[2:] + "\n")
            commands.append((shlex.split(line, comments=True)[1:], "".join(expected)))
    return commands


COMMANDS = cli_commands()
EXAMPLES = [(argv, expected) for argv, expected in COMMANDS if expected]


def test_readme_shows_cli_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["run", "run", "oracle", "oracle"]


def test_readme_shows_eleven_cli_commands():
    assert [argv[0] for argv, _ in COMMANDS] == ["run"] * 3 + ["oracle"] * 2 + ["demo"] * 6


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_readme_cli_command_parses(argv):
    # parse and bind only: running the demos here would cost Tier-1 their full size
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        bind_demo(args)


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_cli_example_prints_what_the_readme_shows(capsys, argv, expected):
    main(argv)
    assert capsys.readouterr().out == expected


def test_every_flag_the_readme_names_is_a_cli_option():
    # a flag removed from the CLI cannot linger in the docs; pip's own flag is the one exception
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert named - {"--no-build-isolation"} <= options, sorted(named - options)
    assert "--format" in named


def test_readme_library_example_runs():
    (block,) = code_blocks("python")
    exec(compile(block, str(README), "exec"), {})
