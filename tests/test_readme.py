"""The README's CLI examples that state their output (``# prints ...``) run
through cli.main and print exactly that, and every line of its CLI usage
block parses with cli.build_parser, so the docs cannot drift from the code."""

import re
import shlex
from pathlib import Path

import pytest

from ratnets.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
EXAMPLES = re.findall(r"^ratnets (.+?)\s+# prints (.+)$", README, re.M)
USAGE = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", README, re.M | re.S)[1]


def test_readme_states_its_examples():
    assert [shlex.split(argv)[0] for argv, _ in EXAMPLES] == ["degrees", "dim", "census"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[argv for argv, _ in EXAMPLES])
def test_readme_example_prints_what_it_says(capsys, argv, expected):
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("line", USAGE.splitlines())
def test_usage_line_parses(line):
    # parsed only, never run: a removed or renamed flag fails here
    prog, *argv = shlex.split(line, comments=True)
    assert prog == "ratnets"
    build_parser().parse_args(argv)
