"""The README's CLI examples that state their output (``# prints ...``) run
through cli.main and print exactly that, so the docs cannot drift from the
code."""

import re
import shlex
from pathlib import Path

import pytest

from ratnets.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^ratnets (.+?)\s+# prints (.+)$", README.read_text(), re.M)


def test_readme_states_its_examples():
    assert [shlex.split(argv)[0] for argv, _ in EXAMPLES] == ["degrees", "dim", "census"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[argv for argv, _ in EXAMPLES])
def test_readme_example_prints_what_it_says(capsys, argv, expected):
    assert main(shlex.split(argv)) == 0
    assert capsys.readouterr().out == expected + "\n"
