"""Fuzz every input-reading subcommand at its file boundary.

Each example takes a valid polynomial, tuple or weights file, makes one
mutation (drop a key or entry, a wrongly typed value, NaN or Infinity, a
negative, fractional or huge integer, a ragged or wrongly nested list, an
extreme magnitude, or a whole tuple scaled by 2**k) and runs the subcommands
that read it in process through cli.main.  Whatever the input, the exit code
is 0, 1 or 2; exit 1 prints one stderr line starting ``error:``; exit 0 or 2
prints strict JSON and emits no Python warning.

Degrees and widths stay small: one mutation cannot make a form of large
degree (its exponents would no longer sum to it), so no example builds a
large companion matrix.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ratnets.cli import main
from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.network import Architecture, Weights, forward_recursive

FUZZ = settings(max_examples=50, deadline=None, derandomize=True)

WEIGHTS = [Weights.random(Architecture(dims), field, seed=seed)
           for dims, field, seed in [((2, 2, 1), REAL, 1), ((2, 3, 1), COMPLEX, 2),
                                     ((2, 2, 1), PrimeField(101), 3), ((3, 2, 2), REAL, 4),
                                     ((2, 2, 2, 1), COMPLEX, 5)]]
TUPLES = [(w.arch, forward_recursive(w)) for w in WEIGHTS if not w.field.exact]
POLYS = [t.denominator for _, t in TUPLES] + [t.numerators[0] for _, t in TUPLES]

MAGNITUDES = [1e308, -1e308, 1e-310, -1e-310, 5e-324]
WRONG_TYPES = [True, False, "1", None, [], {}, [1.0, 2.0], {"re": 1.0}]
BAD_INTEGERS = [-1, 0, 2.5, 10 ** 30, -(10 ** 30), 10 ** 400]


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _set(obj, path, value):
    if not path:
        return value
    _get(obj, path[:-1])[path[-1]] = value
    return obj


@st.composite
def mutated(draw, obj):
    """obj (a JSON tree) with one mutation at one node."""
    obj = json.loads(json.dumps(obj))
    path = draw(st.sampled_from(list(_paths(obj))))
    node = _get(obj, path)
    kinds = ["type", "nonfinite", "integer", "nest"]
    if path:
        kinds.append("drop")
    if isinstance(node, list) and node:
        kinds.append("ragged")
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        kinds.append("magnitude")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del _get(obj, path[:-1])[path[-1]]
        return obj
    if kind == "ragged":  # one entry too many or too few
        return _set(obj, path, node + node[-1:] if draw(st.booleans()) else node[:-1])
    if kind == "nest":
        return _set(obj, path, [node])
    choices = {"type": WRONG_TYPES, "nonfinite": [math.nan, math.inf, -math.inf],
               "integer": BAD_INTEGERS, "magnitude": MAGNITUDES}[kind]
    return _set(obj, path, draw(st.sampled_from(choices)))


@st.composite
def extreme(draw, obj):
    """obj (a polynomial or tuple tree) with one coefficient part at an
    extreme magnitude."""
    obj = json.loads(json.dumps(obj))
    parts = [path for path in _paths(obj) if path and path[-1] in ("re", "im")]
    return _set(obj, draw(st.sampled_from(parts)), draw(st.sampled_from(MAGNITUDES)))


def _scaled(obj, k):
    """Every coefficient of a polynomial or tuple tree times 2**k."""
    if isinstance(obj, dict):
        return {key: (value * 2.0 ** k if key in ("re", "im") else _scaled(value, k))
                for key, value in obj.items()}
    if isinstance(obj, list):
        return [_scaled(v, k) for v in obj]
    return obj


def _strict(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def run_cli(workdir, obj, *argv):
    """Write obj (NaN and Infinity as JSON extensions) and run argv with
    {file} replaced by its path; check the exit-code protocol."""
    f = workdir / "in.json"
    f.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(f) if a == "{file}" else a for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert out == ""
    else:
        _strict(out)
        assert [str(w.message) for w in caught] == [] and err == "", (argv, err)
    return code


def _tuple_commands(arch):
    if arch.is_shallow():
        spec = ",".join(map(str, arch.dims))
        return [("reconstruct", "--arch", spec), ("membership", "--arch", spec)]
    layers = str(arch.layers)
    return [("reconstruct", "--binary", "--layers", layers),
            ("membership", "--binary", "--layers", layers)]


def _weights_commands(w):
    point = ",".join(str(j + 2) for j in range(w.arch.d0))
    cmds = [("eval", "--x", point, "--weights"),
            ("forward", "--arch", ",".join(map(str, w.arch.dims)), "--weights")]
    if w.arch.is_shallow():
        cmds.append(("hpoly", "--slices", "--weights"))
    return cmds


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data(), which=st.integers(0, len(POLYS) - 1))
def test_factor_inputs(workdir, data, which):
    p = POLYS[which]
    obj = data.draw(mutated(p.to_json()))
    run_cli(workdir, obj, "factor", "--poly", "{file}")
    if p.nvars == 2:
        run_cli(workdir, obj, "factor", "--binary", "--poly", "{file}")


@FUZZ
@given(data=st.data(), which=st.integers(0, len(TUPLES) - 1))
def test_tuple_inputs(workdir, data, which):
    arch, t = TUPLES[which]
    obj = data.draw(mutated(t.to_json()))
    for cmd in _tuple_commands(arch):
        run_cli(workdir, obj, *cmd, "--tuple", "{file}")


@FUZZ
@given(data=st.data(), which=st.integers(0, len(WEIGHTS) - 1))
def test_weights_inputs(workdir, data, which):
    w = WEIGHTS[which]
    obj = data.draw(mutated(w.to_json()))
    for cmd in _weights_commands(w):
        run_cli(workdir, obj, *cmd, "{file}")


@FUZZ
@given(data=st.data(), which=st.integers(0, len(TUPLES) - 1))
def test_extreme_coefficients(workdir, data, which):
    arch, t = TUPLES[which]
    obj = data.draw(extreme(t.to_json()))
    for cmd in _tuple_commands(arch):
        run_cli(workdir, obj, *cmd, "--tuple", "{file}")
    if arch.d0 == 2:
        run_cli(workdir, obj["denominator"], "factor", "--binary", "--poly", "{file}")
        run_cli(workdir, obj["numerators"][0], "factor", "--binary", "--poly", "{file}")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(which=st.integers(0, len(TUPLES) - 1), k=st.integers(-1000, 1000))
def test_scaled_tuples(workdir, which, k):
    arch, t = TUPLES[which]
    obj = _scaled(t.to_json(), k)
    for cmd in _tuple_commands(arch):
        run_cli(workdir, obj, *cmd, "--tuple", "{file}")
    run_cli(workdir, obj["denominator"], "factor", "--poly", "{file}")


def test_regression_binary_peel_of_a_1e308_numerator(workdir):
    # found by test_tuple_inputs: the numerator's polynomial overflowed at its
    # roots, and numpy printed RuntimeWarnings beside a FactorTest verdict
    arch, t = TUPLES[3]
    obj = t.to_json()
    obj["numerators"][0]["terms"][0]["re"] = 1e308
    assert arch.dims == (2, 2, 2, 1)
    assert run_cli(workdir, obj, *_tuple_commands(arch)[0], "--tuple", "{file}") == 2
