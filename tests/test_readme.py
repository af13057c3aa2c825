"""The README's CLI examples that state their output (``# prints ...``) run
through cli.main and print exactly that, every line of its CLI usage block
parses with cli.build_parser, and every backticked `module.name` it names
exists, so the docs cannot drift from the code."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import ratnets
from ratnets.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
EXAMPLES = re.findall(r"^ratnets (.+?)\s+# prints (.+)$", README, re.M)
USAGE = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", README, re.M | re.S)[1]
MODULES = {m.name for m in pkgutil.iter_modules(ratnets.__path__)}
REFERENCES = sorted({(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", README)
                     if mod in MODULES})


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


def test_readme_code_references_resolve():
    # a deletion that the README still names fails here
    assert REFERENCES, "no backticked module.name found"
    missing = [f"{mod}.{name}" for mod, name in REFERENCES
               if not hasattr(importlib.import_module(f"ratnets.{mod}"), name)]
    assert missing == []
