"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ratnets"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used_names(ast.parse(node.value, mode="eval"))
    return names


def test_checker_sees_an_unused_and_a_quoted_import():
    tree = ast.parse("from typing import Sequence\nimport numpy as np\n"
                     "from .network import Weights\ndef f(w: 'Weights'): return np.zeros(1)\n")
    assert imported_names(tree) - used_names(tree) == {"Sequence"}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    assert imported_names(tree) - used_names(tree) == set()


ROOT = SRC.parent.parent
CORPUS = {p: p.read_text() for p in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                                      *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function and class
    and of each method whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def unnamed_definitions(source: str, others) -> list[str]:
    """The definitions in source named neither outside their own lines nor
    in any of the other texts."""
    lines = source.splitlines()
    out = []
    for name, first, last in definitions(ast.parse(source)):
        word = re.compile(rf"\b{re.escape(name)}\b")
        rest = "\n".join(lines[:first - 1] + lines[last:])
        if not word.search(rest) and not any(word.search(t) for t in others):
            out.append(name)
    return out


def test_checker_sees_a_definition_named_only_by_itself():
    source = ("def used(): return 1\ndef lonely(): return lonely\n"
              "class C:\n    def __repr__(self): return ''\n    def m(self): return used()\n")
    assert unnamed_definitions(source, ["C().m()"]) == ["lonely"]


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_is_named_somewhere_else(module):
    path = SRC / module
    others = [text for p, text in CORPUS.items() if p != path]
    assert unnamed_definitions(CORPUS[path], others) == []


def called_name(call: ast.Call) -> str | None:
    """f for a call f(...) or m.f(...)."""
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def callers(tree: ast.Module, callees: set[str]) -> set[tuple[str, str]]:
    """(function, callee) for each call, in a function or method at any
    depth, to one of callees by name."""
    return {(node.name, called_name(call)) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and called_name(call) in callees}


def test_checker_sees_plain_and_dotted_calls_in_functions_and_methods():
    tree = ast.parse("def a(): return b(1)\ndef b(x): return x\nb(3)\n"
                     "class C:\n    def m(self): return mod.b(2)\n")
    assert callers(tree, {"b"}) == {("a", "b"), ("m", "b")}


PROCEDURES = {"reconstruct_shallow", "reconstruct_binary"}


def test_only_reconstruct_auto_picks_a_reconstruction():
    # one dispatch: every other caller in the package goes through reconstruct_auto
    found = {(module, *pair) for module in MODULES
             for pair in callers(ast.parse(CORPUS[SRC / module]), PROCEDURES)}
    assert found == {("reconstruct.py", "reconstruct_auto", "reconstruct_shallow"),
                     ("reconstruct.py", "reconstruct_auto", "reconstruct_binary")}


def test_cli_and_binary_membership_reconstruct_through_reconstruct_auto():
    # the two CLI commands and the binary membership test reach a
    # reconstruction by reconstruct_auto alone, so one tuple and shape get
    # one verdict from each of them
    entries = {"cmd_reconstruct", "cmd_membership", "membership_binary_multioutput"}
    found = {pair for module in ("cli.py", "reconstruct.py")
             for pair in callers(ast.parse(CORPUS[SRC / module]),
                                 {"reconstruct_auto", "membership_binary_multioutput", *PROCEDURES})
             if pair[0] in entries}
    assert found == {("cmd_reconstruct", "reconstruct_auto"),
                     ("cmd_membership", "membership_binary_multioutput"),
                     ("membership_binary_multioutput", "reconstruct_auto")}


def test_train_stack_steps_through_the_module_level_adam_step():
    # the benchmark's tracer wraps the module binding train.adam_step, so an
    # update inlined into the epoch loop would count no calls
    tree = ast.parse(CORPUS[SRC / "train.py"])
    train_stack = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "train_stack")
    in_loops = {call.func.id for loop in ast.walk(train_stack) if isinstance(loop, ast.For)
                for call in ast.walk(loop)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    assert "adam_step" in in_loops


# The exponent arithmetic and its caches: poly.py is their one home, so no
# module keeps a private copy of polynomial products or exponent checks.
EXPONENT_ARITHMETIC = {"_mul_terms", "_PACKED", "_UNPACKED", "_CHECKED"}


def named(tree: ast.AST) -> set[str]:
    """Every identifier the module names: read, bound, defined, imported, taken
    as an attribute or spelled as a string constant (for getattr)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name.rpartition(".")[2], node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names - {None}


def test_checker_sees_imports_attributes_definitions_and_strings():
    tree = ast.parse("from .poly import _mul_terms as m\nx = poly._CHECKED\n"
                     "def _PACKED(): pass\ny = getattr(poly, '_UNPACKED')\n")
    assert named(tree) & EXPONENT_ARITHMETIC == EXPONENT_ARITHMETIC


def test_exponent_arithmetic_has_one_home():
    assert EXPONENT_ARITHMETIC <= named(ast.parse(CORPUS[SRC / "poly.py"]))
    found = {(path.name, name) for path in SRC.glob("*.py") if path.name != "poly.py"
             for name in named(ast.parse(CORPUS[path])) & EXPONENT_ARITHMETIC}
    assert found == set()
