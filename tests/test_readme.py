"""The README's examples are executable.

Every ```sh line that starts with ``goodnet `` and is followed by
``# `` lines is a CLI example: those lines are its exact stdout.  The
```python block is the library example and must run as written.
"""

import re
import shlex
from pathlib import Path

import pytest

from goodnet.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def cli_examples():
    """(argv, expected stdout) for every CLI example in the README."""
    examples = []
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
            if expected:
                examples.append((shlex.split(line, comments=True)[1:], "".join(expected)))
    return examples


EXAMPLES = cli_examples()


def test_readme_shows_cli_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == ["run", "run", "oracle", "oracle"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_cli_example_prints_what_the_readme_shows(capsys, argv, expected):
    main(argv)
    assert capsys.readouterr().out == expected


def test_readme_library_example_runs():
    (block,) = code_blocks("python")
    exec(compile(block, str(README), "exec"), {})
