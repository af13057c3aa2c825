import argparse
import json
import math
import random
import warnings

import pytest

from ratnets import cli, factor
from ratnets.cli import build_parser, main, tolerance
from ratnets.factor import NonConvergenceError
from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.geometry import rank_test_membership
from ratnets.network import (Architecture, RationalTuple, Weights, degrees, eval_network,
                             forward_recursive)
from ratnets.poly import HomPoly, monomials, product
from ratnets.reconstruct import membership_binary_multioutput


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_poly(path, poly):
    path.write_text(json.dumps(poly.to_json()))
    return str(path)


def write_tuple(path, t):
    path.write_text(json.dumps(t.to_json()))
    return str(path)


def lin(*coeffs):
    return HomPoly.linear(COMPLEX, [complex(c) for c in coeffs])


def random_tuple(arch, seed):
    """Random complex coefficients with the degrees of arch's output tuple."""
    rng = random.Random(seed)
    prof = degrees(arch)

    def form(degree):
        return HomPoly(COMPLEX, arch.dims[0], degree,
                       {e: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for e in monomials(arch.dims[0], degree)})

    return RationalTuple(tuple(form(prof.numerator_degree) for _ in range(arch.dL)),
                         form(prof.denominator_degree))


def reassemble_factor_json(blob, nvars):
    """constant * product of the reported coefficient rows."""
    acc = HomPoly.constant(COMPLEX, nvars, complex(*blob["constant"]))
    for row in blob["factors"]:
        acc = acc.mul(HomPoly.linear(COMPLEX, [complex(*c) for c in row]))
    return acc


def test_version(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])


def test_degrees_output(capsys):
    code, out, _ = run(capsys, "degrees", "--arch", "2,2,2,1")
    assert code == 0
    assert out.strip() == "n=3 m=2"


def test_usage_error_exit_code(capsys):
    assert main(["degrees"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["degrees", "--arch", "2,1,2"]) == 1


def test_forward_and_eval(tmp_path, capsys):
    w = Weights.random(Architecture((2, 2, 1)), REAL, seed=4)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(w.to_json()))
    code, out, _ = run(capsys, "forward", "--arch", "2,2,1", "--weights", str(wfile))
    assert code == 0
    blob = json.loads(out)
    t = forward_recursive(w)
    assert blob["denominator"]["degree"] == t.denominator.degree

    ident = Weights(Architecture((2, 2, 1)), REAL,
                    (((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),)))
    wfile2 = tmp_path / "w2.json"
    wfile2.write_text(json.dumps(ident.to_json()))
    code, out, _ = run(capsys, "eval", "--weights", str(wfile2), "--x", "1,2")
    assert code == 0
    assert json.loads(out)[0] == pytest.approx(1.5)


def test_eval_gfp_weights_takes_integer_points(tmp_path, capsys):
    w = Weights.random(Architecture((2, 2, 1)), PrimeField(), seed=3)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(w.to_json()))
    code, out, _ = run(capsys, "eval", "--weights", str(wfile), "--x", "1,2")
    assert code == 0
    assert json.loads(out) == eval_network(w, [1, 2])
    assert all(isinstance(v, int) for v in json.loads(out))

    code, out, err = run(capsys, "eval", "--weights", str(wfile), "--x", "1.5,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["real", "complex"])
@pytest.mark.parametrize("point", ["nan,1", "inf,1"])
def test_eval_non_finite_point_is_one_line_error(tmp_path, capsys, point, field):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(Weights.random(Architecture((2, 2, 1)), field, seed=2).to_json()))
    _assert_one_line_error(*run(capsys, "eval", "--weights", str(wfile), "--x", point))


def test_arithmetic_failure_is_one_line_error(tmp_path, capsys):
    # no residual meets a negative tolerance, so --tol rejects one
    q = product([lin(1, 2), lin(1, -1)])
    code, out, err = run(capsys, "factor", "--binary", "--tol", "-1",
                         "--poly", write_poly(tmp_path / "q.json", q))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def _assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_factor_malformed_terms_is_one_line_error(tmp_path, capsys):
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"nvars": 2, "degree": 1, "terms": 5}))
    _assert_one_line_error(*run(capsys, "factor", "--poly", str(f)))


@pytest.mark.parametrize("flags", [[], ["--binary"]], ids=["multilinear", "binary"])
def test_factor_constant_form_is_one_line_error(tmp_path, capsys, flags):
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"nvars": 2, "degree": 0, "terms": [{"exp": [0, 0], "re": 3.0}]}))
    code, out, err = run(capsys, "factor", *flags, "--poly", str(f))
    _assert_one_line_error(code, out, err)
    assert "degree 0" in err


def test_reconstruct_malformed_numerators_is_one_line_error(tmp_path, capsys):
    t = forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1)).to_json()
    t["numerators"] = 3
    f = tmp_path / "t.json"
    f.write_text(json.dumps(t))
    _assert_one_line_error(*run(capsys, "reconstruct", "--tuple", str(f), "--arch", "2,2,1"))


def test_non_finite_input_is_one_line_error(tmp_path, capsys):
    w = Weights.random(Architecture((2, 2, 1)), REAL, seed=1)
    t = forward_recursive(w).to_json()
    t["numerators"][0]["terms"][0]["re"] = float("nan")
    f = tmp_path / "t.json"
    f.write_text(json.dumps(t))
    _assert_one_line_error(*run(capsys, "reconstruct", "--tuple", str(f), "--arch", "2,2,1"))
    wj = w.to_json()
    wj["mats"][0][0][0] = float("inf")
    f.write_text(json.dumps(wj))
    _assert_one_line_error(*run(capsys, "forward", "--arch", "2,2,1", "--weights", str(f)))


def test_eval_malformed_mats_is_one_line_error(tmp_path, capsys):
    w = Weights.random(Architecture((2, 2, 1)), REAL, seed=1).to_json()
    w["mats"] = 5
    f = tmp_path / "w.json"
    f.write_text(json.dumps(w))
    _assert_one_line_error(*run(capsys, "eval", "--weights", str(f), "--x", "1,2"))


def test_forward_binary_flag_matches(tmp_path, capsys):
    code, out1, _ = run(capsys, "forward", "--arch", "2,2,2,1", "--seed", "5")
    code2, out2, _ = run(capsys, "forward", "--arch", "2,2,2,1", "--seed", "5", "--binary")
    assert code == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    ta = {tuple(t["exp"]): t["re"] for t in a["denominator"]["terms"]}
    tb = {tuple(t["exp"]): t["re"] for t in b["denominator"]["terms"]}
    assert set(ta) == set(tb)
    assert all(abs(ta[e] - tb[e]) < 1e-12 for e in ta)


def test_factor_decomposable_and_not(tmp_path, capsys):
    cubic = product([lin(1, 1, 1), lin(1, -1, 0), lin(1, 0, -1)])
    code, out, _ = run(capsys, "factor", "--poly", write_poly(tmp_path / "q.json", cubic))
    assert code == 0
    blob = json.loads(out)
    assert blob["decomposable"] is True
    assert len(blob["factors"]) == 3
    err = reassemble_factor_json(blob, 3).sub(cubic).max_magnitude()
    assert err <= 1e-8 * cubic.max_magnitude()

    quadric = HomPoly(COMPLEX, 3, 2, {(2, 0, 0): 1 + 0j, (0, 2, 0): 1 + 0j, (0, 0, 2): 1 + 0j})
    code, out, _ = run(capsys, "factor", "--poly", write_poly(tmp_path / "q2.json", quadric))
    assert code == 2
    assert json.loads(out)["decomposable"] is False


def clustered_numerator():
    """The numerator of a depth-5 tower: a product of linear forms by
    construction, with clustered roots."""
    w = Weights.random(Architecture((2, 2, 2, 2, 2, 1)), REAL, seed=1)
    return forward_recursive(w).numerators[0]


def test_factor_binary_unverified_split_is_a_verdict(tmp_path, capsys):
    # no split of a float form reassembles exactly, so --tol 0 rejects one
    # that is a product of linear forms, as a verdict with its residual
    path = write_poly(tmp_path / "q.json", clustered_numerator())
    code, out, err = run(capsys, "factor", "--binary", "--tol", "0", "--poly", path)
    assert (code, err) == (2, "")
    blob = json.loads(out)
    assert (blob["decomposable"], blob["failure_reason"]) == (False, "VerificationFail")
    assert 0 < blob["residual"] <= 1e-8


def test_factor_binary_clustered_numerator_factors(tmp_path, capsys):
    # its clustered roots reassembled to 3.0e-8 after a Newton polish; the
    # companion eigenvalues meet the default 1e-8
    path = write_poly(tmp_path / "q.json", clustered_numerator())
    code, out, err = run(capsys, "factor", "--binary", "--poly", path)
    assert (code, err) == (0, "")
    blob = json.loads(out)
    assert blob["decomposable"] is True
    assert blob["residual"] <= 1e-8


def test_factor_binary_root_finder_failure_is_a_verdict(tmp_path, capsys, monkeypatch):
    def fail(coeffs):
        raise NonConvergenceError("max residual above bound")

    monkeypatch.setattr(factor, "roots_univariate", fail)
    q = product([lin(2, 1), lin(1, -3)])
    code, out, err = run(capsys, "factor", "--binary", "--poly", write_poly(tmp_path / "q.json", q))
    assert (code, err) == (2, "")
    assert json.loads(out) == {"decomposable": False, "all_real": False,
                               "failure_reason": "RootFindFail"}


def test_factor_root_finder_failure_is_reported_as_such(tmp_path, capsys, monkeypatch):
    # every attempt finds a pivot and then fails in the root finder; the
    # report used to say no pivot was found (LeadingCoeffZeroUnfixable)
    def fail(coeffs):
        raise NonConvergenceError("max residual above bound")

    monkeypatch.setattr(factor, "roots_univariate", fail)
    q = product([lin(1, 1, 1), lin(1, -1, 2)])
    code, out, err = run(capsys, "factor", "--poly", write_poly(tmp_path / "q.json", q))
    assert (code, err) == (2, "")
    assert json.loads(out)["failure_reason"] == "RootFindFail"


@pytest.mark.parametrize("seed", [16, 17, 21])
def test_binary_peel_of_an_overflowing_form_is_a_verdict(tmp_path, capsys, seed):
    # x1^3 = -1e308 makes P a cube of x1 to within subnormal coefficients, so
    # the depth-3 peel finds no independent pair among P's rows; substituting
    # into P at every depth once ended seed 16 in "absolute value too large"
    # and 17 and 21 in an IndexError
    t = forward_recursive(Weights.random(Architecture((2, 2, 2, 2, 1)), COMPLEX, seed=seed))
    P = t.numerators[0]
    t = RationalTuple((HomPoly(COMPLEX, 2, 3, {**P.terms, (3, 0): -1e308 + 0j}),), t.denominator)
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, err, caught = _run_recording_warnings(capsys, "reconstruct", "--binary", "--layers",
                                                     "4", "--tuple", tfile)
    assert (code, err, caught) == (2, "", [])
    verdict = _strict_json(out)
    assert (verdict["stage_failed"], verdict["residual"]) == ("RepeatedFactors", None)


@pytest.mark.parametrize("route", [("--binary", "--layers", "3"), ("--arch", "2,2,2,1")],
                         ids=["binary", "arch"])
def test_reconstruct_of_a_coefficient_at_the_float_limit_is_a_verdict(tmp_path, capsys, route):
    # x1^2 x2 = 1e308 is a finite JSON number, but the peeled forms' complex
    # moduli overflow: both routes printed "error: absolute value too large"
    # (exit 1), and with the magnitude alone fixed the forward-map check read
    # a finite error over an infinite scale as residual 0.0, in model
    t = forward_recursive(Weights.random(Architecture((2, 2, 2, 1)), COMPLEX, seed=5))
    P = t.numerators[0]
    t = RationalTuple((HomPoly(COMPLEX, 2, 3, {**P.terms, (2, 1): 1e308 + 0j}),), t.denominator)
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, err, caught = _run_recording_warnings(capsys, "reconstruct", *route, "--tuple", tfile)
    assert (code, err, caught) == (2, "", [])
    verdict = _strict_json(out)
    assert (verdict["in_model"], verdict["stage_failed"], verdict["residual"]) == \
        (False, "VerificationFail", None)


def test_membership_binary_of_a_single_output_tuple_is_its_reconstruction(tmp_path, capsys):
    # the float-limit tuple above: with one numerator there is no pairwise
    # resultant, and a resultant screen once read it in model with residual
    # 0.0 (exit 0)
    t = forward_recursive(Weights.random(Architecture((2, 2, 2, 1)), COMPLEX, seed=5))
    P = t.numerators[0]
    t = RationalTuple((HomPoly(COMPLEX, 2, 3, {**P.terms, (2, 1): 1e308 + 0j}),), t.denominator)
    tfile = write_tuple(tmp_path / "t.json", t)
    outs = []
    for command in ("membership", "reconstruct"):
        code, out, err, caught = _run_recording_warnings(capsys, command, "--binary", "--layers",
                                                         "3", "--tuple", tfile)
        assert (code, err, caught) == (2, "", [])
        outs.append(_strict_json(out))
    assert outs[0] == outs[1]
    assert (outs[0]["stage_failed"], outs[0]["necessary_only"]) == ("VerificationFail", False)


@pytest.mark.parametrize("argv", [("factor",), ("factor", "--binary")])
def test_negative_tol_is_one_line_error(tmp_path, capsys, argv):
    q = product([lin(2, 1), lin(1, -3)])
    _assert_one_line_error(*run(capsys, *argv, "--tol=-1e-9",
                                "--poly", write_poly(tmp_path / "q.json", q)))


@pytest.mark.parametrize("spelling", [("--tol=-1e-9",), ("--tol", "-1e-9"), ("--tol", "-1")],
                         ids=["joined", "separate", "integer"])
@pytest.mark.parametrize("argv", [
    ("factor", "--poly", "{tmp}/den.json"),
    ("reconstruct", "--arch", "2,2,1", "--tuple", "{tmp}/t.json"),
    ("membership", "--arch", "2,2,1", "--tuple", "{tmp}/t.json"),
], ids=["factor", "reconstruct", "membership"])
def test_negative_tol_reaches_the_tolerance_check(tmp_path, capsys, argv, spelling):
    # argparse takes "-1e-9" for an option unless it reads it as a number
    t = forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1))
    write_poly(tmp_path / "den.json", t.denominator)
    write_tuple(tmp_path / "t.json", t)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv), *spelling)
    _assert_one_line_error(code, out, err)
    assert "tolerance must be a number >= 0" in err


def test_factor_binary_json_reassembles(tmp_path, capsys):
    q = product([lin(2, 1), lin(1, -3), lin(0, 1)])
    code, out, _ = run(capsys, "factor", "--binary", "--poly", write_poly(tmp_path / "q.json", q))
    assert code == 0
    blob = json.loads(out)
    assert len(blob["factors"]) == 3
    assert reassemble_factor_json(blob, 2).sub(q).max_magnitude() <= 1e-8 * q.max_magnitude()


@pytest.mark.parametrize("argv", [
    ("factor", "--poly", "{tmp}/den.json"),
    ("reconstruct", "--arch", "3,4,2", "--tuple", "{tmp}/on.json"),
    ("membership", "--arch", "3,2,1", "--tuple", "{tmp}/off.json"),
    ("membership", "--binary", "--layers", "3", "--tuple", "{tmp}/off_binary.json"),
], ids=["factor", "reconstruct", "membership", "membership-binary"])
def test_nan_tol_is_one_line_error(tmp_path, capsys, argv):
    # every comparison with NaN is false, so a NaN tolerance would flip each
    # verdict: the decomposable denominator and the on-model tuple to
    # rejections, the two off-model tuples to acceptances
    on_model = forward_recursive(Weights.random(Architecture((3, 4, 2)), COMPLEX, seed=1))
    write_poly(tmp_path / "den.json", on_model.denominator)
    write_tuple(tmp_path / "on.json", on_model)
    write_tuple(tmp_path / "off.json", random_tuple(Architecture((3, 2, 1)), 2))
    write_tuple(tmp_path / "off_binary.json", random_tuple(Architecture((2, 2, 2, 2)), 3))
    _assert_one_line_error(*run(capsys, *(a.format(tmp=tmp_path) for a in argv),
                                "--tol", "nan"))


def test_reconstruct_round_trip_via_files(tmp_path, capsys):
    w = Weights.random(Architecture((3, 3, 2)), COMPLEX, seed=11)
    t = forward_recursive(w)
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, _ = run(capsys, "reconstruct", "--tuple", tfile, "--arch", "3,3,2")
    assert code == 0
    blob = json.loads(out)
    assert blob["in_model"] is True
    assert blob["residual"] <= 1e-6

    # binary route
    wb = Weights.random(Architecture((2, 2, 2, 1)), COMPLEX, seed=12)
    tb = forward_recursive(wb)
    tfile2 = write_tuple(tmp_path / "tb.json", tb)
    code, out, _ = run(capsys, "reconstruct", "--tuple", tfile2, "--binary", "--layers", "3")
    assert code == 0
    assert json.loads(out)["in_model"] is True


def test_reconstruct_binary_tower_real_only_is_one_line_error(tmp_path, capsys):
    t = forward_recursive(Weights.random(Architecture((2, 2, 2, 1)), COMPLEX, seed=12))
    tfile = write_tuple(tmp_path / "t.json", t)
    _assert_one_line_error(*run(capsys, "reconstruct", "--tuple", tfile, "--binary",
                                "--layers", "3", "--real-only"))


def test_reconstruct_binary_depth_two(tmp_path, capsys):
    w = Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=13)
    tfile = write_tuple(tmp_path / "t.json", forward_recursive(w))
    code, out, _ = run(capsys, "reconstruct", "--tuple", tfile, "--binary", "--layers", "2")
    assert code == 0
    blob = json.loads(out)
    assert set(blob) == {"in_model", "stage_failed", "residual", "necessary_only", "weights"}
    assert blob["in_model"] is True
    assert blob["residual"] <= 1e-6


def test_membership_moment_and_resultant(tmp_path, capsys):
    w = Weights.random(Architecture((4, 2, 2)), COMPLEX, seed=3)
    t = forward_recursive(w)
    tfile = write_tuple(tmp_path / "m.json", t)
    code, out, _ = run(capsys, "membership", "--tuple", tfile, "--arch", "4,2,2")
    assert code == 0
    assert json.loads(out)["moment_rank"] == 2

    import random
    rng = random.Random(9)
    Ps = tuple(HomPoly(COMPLEX, 2, 3, {(3 - k, k): complex(rng.uniform(-1, 1))
                                       for k in range(4)}) for _ in range(2))
    Q = HomPoly(COMPLEX, 2, 2, {(2, 0): 1 + 0j, (0, 2): 1 + 0j})
    bad = type(t)(Ps, Q)
    tfile2 = write_tuple(tmp_path / "bad.json", bad)
    code, out, _ = run(capsys, "membership", "--tuple", tfile2, "--binary", "--layers", "3")
    assert code == 2


def test_membership_variable_count_mismatch_is_one_line_error(tmp_path, capsys):
    t = RationalTuple((lin(1, 2, 3),), lin(1, 1).mul(lin(1, -1)))
    tfile = write_tuple(tmp_path / "t.json", t)
    _assert_one_line_error(*run(capsys, "membership", "--tuple", tfile, "--arch", "2,2,1"))


def test_membership_zero_denominator_is_not_in_model(tmp_path, capsys):
    t = RationalTuple((lin(1, 2),), HomPoly.zero(COMPLEX, 2, 2))
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, _ = run(capsys, "membership", "--tuple", tfile, "--arch", "2,2,1")
    assert code == 2
    assert json.loads(out)["in_model"] is False


@pytest.mark.parametrize("field", [REAL, COMPLEX], ids=["real", "complex"])
@pytest.mark.parametrize("dims", [(2, 2, 1), (2, 2, 2), (2, 2, 3)])
def test_membership_binary_depth_two_accepts_on_model_tuples(tmp_path, capsys, dims, field):
    # at two layers the binary test is the shallow reconstruction, as for
    # the one-hidden-layer shape (2, 2, k)
    t = forward_recursive(Weights.random(Architecture(dims), field, seed=7))
    tfile = write_tuple(tmp_path / "t.json", t)
    for layers in ((), ("--layers", "2")):  # 2 is the default
        code, out, err = run(capsys, "membership", "--binary", *layers, "--tuple", tfile)
        assert (code, err) == (0, "")
        verdict = json.loads(out)
        assert verdict["in_model"] is True and verdict["necessary_only"] is False
        assert verdict["stage_failed"] == "None" and verdict["residual"] <= 1e-8
        assert Weights.from_json(verdict["weights"]).arch.dims == dims


def test_membership_binary_depth_two_rejects_a_closure_point(tmp_path, capsys):
    # y / x^2 is a limit of on-model tuples but no sum a / l1 + b / l2; at
    # input width 2 the moment rank cannot exceed 2 and would accept it
    t = RationalTuple((lin(0, 1),), product([lin(1, 0), lin(1, 0)]))
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, err = run(capsys, "membership", "--binary", "--tuple", tfile)
    assert (code, err) == (2, "")
    verdict = json.loads(out)
    assert verdict["in_model"] is False and verdict["necessary_only"] is False
    code, _, _ = run(capsys, "reconstruct", "--binary", "--layers", "2", "--tuple", tfile)
    assert code == 2


def test_membership_moment_rank_is_necessary_only_at_width_two(tmp_path, capsys):
    # the rank screen passes y / x^2, a limit of (2, 2, 1) tuples outside the
    # model, so its verdict must not claim to be exact
    t = RationalTuple((lin(0, 1),), product([lin(1, 0), lin(1, 0)]))
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, err = run(capsys, "membership", "--arch", "2,2,1", "--tuple", tfile)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"in_model": True, "moment_rank": 2, "necessary_only": True}
    code, _, _ = run(capsys, "reconstruct", "--arch", "2,2,1", "--tuple", tfile)
    assert code == 2


def test_membership_moment_rank_of_a_huge_coefficient_is_measured(tmp_path, capsys):
    # 3! * 1e308 overflows a moment matrix built from the tuple as given, and
    # its NaN singular values then counted as rank 0 and passed
    t = forward_recursive(Weights.random(Architecture((3, 3, 2)), COMPLEX, seed=1))
    terms = dict(t.denominator.terms)
    terms[(3, 0, 0)] = complex(1e308)
    tfile = write_tuple(tmp_path / "t.json", RationalTuple(t.numerators, HomPoly(COMPLEX, 3, 3, terms)))
    code, out, err = run(capsys, "membership", "--arch", "3,3,2", "--tuple", tfile)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"in_model": True, "moment_rank": 1, "necessary_only": True}
    # reconstruct, whose mismatch is relative to the largest coefficient, agrees
    code, out, _ = run(capsys, "reconstruct", "--arch", "3,3,2", "--tuple", tfile)
    assert code == 0 and json.loads(out)["in_model"] is True


def test_membership_moment_rank_runs_at_the_library_tolerance(tmp_path, capsys):
    # one numerator coefficient moved by 1e-9 of the largest lifts the moment
    # rank to 3 at rank_test_membership's default tol; the CLI's own default
    # of 1e-8 read rank 2 and accepted
    arch = Architecture((3, 2, 1))
    t = forward_recursive(Weights.random(arch, COMPLEX, seed=1))
    terms = dict(t.numerators[0].terms)
    terms[(0, 1, 0)] += 1e-9 * t.numerators[0].max_magnitude()
    moved = RationalTuple((HomPoly(COMPLEX, 3, 1, terms),), t.denominator)
    tfile = write_tuple(tmp_path / "t.json", moved)
    code, out, err = run(capsys, "membership", "--arch", "3,2,1", "--tuple", tfile)
    assert (code, err) == (2, "")
    assert json.loads(out) == {"in_model": False, "moment_rank": 3, "necessary_only": True}
    assert rank_test_membership(moved, arch).rank == 3
    code, out, _ = run(capsys, "membership", "--arch", "3,2,1", "--tuple", tfile, "--tol", "1e-8")
    assert code == 0 and json.loads(out)["moment_rank"] == 2


def test_membership_binary_runs_at_its_own_tolerance_unless_given(tmp_path, capsys, monkeypatch):
    seen = []

    def spy(t, layers, **kwargs):
        seen.append(kwargs)
        return membership_binary_multioutput(t, layers, **kwargs)

    monkeypatch.setattr(cli, "membership_binary_multioutput", spy)
    t = forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=7))
    tfile = write_tuple(tmp_path / "t.json", t)
    for extra in ((), ("--tol", "1e-3")):
        code, _, _ = run(capsys, "membership", "--binary", "--tuple", tfile, *extra)
        assert code == 0
    assert seen == [{}, {"tol": 1e-3}]


@pytest.mark.parametrize("layers", [2, 3])
def test_membership_binary_zero_denominator_is_not_in_model(tmp_path, capsys, layers):
    prof = degrees(Architecture((2,) * layers + (1,)))
    num = product([lin(1, k) for k in range(1, prof.numerator_degree + 1)])
    t = RationalTuple((num,), HomPoly.zero(COMPLEX, 2, prof.denominator_degree))
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, _ = run(capsys, "membership", "--tuple", tfile, "--binary",
                       "--layers", str(layers))
    assert code == 2

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    verdict = json.loads(out, parse_constant=reject)
    # a zero denominator has no split: an exact verdict at either depth
    assert verdict["in_model"] is False and verdict["necessary_only"] is False
    assert verdict["stage_failed"] == "FactorTest"
    assert verdict["residual"] is None


def test_dim_prints_rank(capsys):
    code, out, _ = run(capsys, "dim", "--arch", "2,2,1", "--seed", "7")
    assert code == 0
    assert out.strip() == "5"


def test_dim_reference_architecture(capsys):
    code, out, _ = run(capsys, "dim", "--arch", "3,3,3,3", "--seed", "7")
    assert code == 0
    assert out.strip() == "22"


@pytest.mark.parametrize("arch", ["2,1", "3,2"])
def test_dim_without_hidden_layer_is_one_line_error(capsys, arch):
    # no hidden layer: no denominator, and a fiber bound above the parameter count
    _assert_one_line_error(*run(capsys, "dim", "--arch", arch))


def test_census_count_only_and_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "census", "--count-only")
    assert code == 0
    assert out.strip() == "722"
    target = tmp_path / "tab.csv"
    code, out, _ = run(capsys, "census", "--max-params", "6", "--max-layers", "2",
                       "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0].startswith("arch,jacobian_rank")
    assert len(lines) > 1


def test_census_has_no_timeout_flag(capsys):
    # every row runs to completion, so no wall-clock limit can empty it
    _assert_one_line_error(*run(capsys, "census", "--max-params", "6", "--max-layers", "2",
                                "--timeout", "10"))


@pytest.mark.parametrize("argv", [("dim", "--arch", "2,2,1", "--samples", "0"),
                                  ("dim", "--arch", "2,2,1", "--samples", "-3"),
                                  ("census", "--max-params", "6", "--max-layers", "2",
                                   "--samples", "0"),
                                  ("census", "--max-params", "3", "--samples", "0")])
def test_samples_below_one_is_one_line_error(capsys, argv):
    _assert_one_line_error(*run(capsys, *argv))


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("argv", [("census", "--max-params", "6", "--max-layers", "2"),
                                  ("train", "--inits", "2", "--epochs", "3")])
def test_workers_below_one_is_one_line_error(capsys, argv, workers):
    _assert_one_line_error(*run(capsys, *argv, "--workers", workers))


def test_out_of_memory_is_one_line_error(capsys, monkeypatch):
    # stands in for an input too large to allocate, such as a huge --epochs
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    _assert_one_line_error(*run(capsys, "train", "--inits", "1", "--epochs", "5"))


@pytest.mark.parametrize("argv", [("factor", "--poly"), ("reconstruct", "--arch", "2,2,1", "--tuple"),
                                  ("eval", "--x", "1,2", "--weights")])
def test_deeply_nested_json_is_one_line_error(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, *argv, str(deep))
    _assert_one_line_error(code, out, err)
    assert err.startswith(f"error: malformed {deep}")


def _without(obj, *path):
    """obj with the key at the end of path deleted (list indices on the way)."""
    inner = obj
    for step in path[:-1]:
        inner = inner[step]
    del inner[path[-1]]
    return obj


def _tuple_json():
    return forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1)).to_json()


@pytest.mark.parametrize("argv, obj, key", [
    (("factor", "--poly"), lambda: _without(lin(1, 2).to_json(), "terms", 0, "exp"), "exp"),
    (("factor", "--poly"), lambda: _without(lin(1, 2).to_json(), "terms", 1, "re"), "re"),
    (("factor", "--poly"), lambda: _without(lin(1, 2).to_json(), "terms"), "terms"),
    (("reconstruct", "--arch", "2,2,1", "--tuple"),
     lambda: _without(_tuple_json(), "denominator"), "denominator"),
    (("eval", "--x", "1,2", "--weights"),
     lambda: _without(Weights.random(Architecture((2, 2, 1)), REAL, seed=1).to_json(), "mats"),
     "mats"),
], ids=["form-without-exp", "form-without-re", "form-without-terms",
        "tuple-without-denominator", "weights-without-mats"])
def test_missing_key_is_one_line_error(tmp_path, capsys, argv, obj, key):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj()))
    code, out, err = run(capsys, *argv, str(f))
    _assert_one_line_error(code, out, err)
    assert err == f"error: malformed {f}: missing key '{key}'\n"


def test_hpoly_slices(tmp_path, capsys):
    w = Weights.random(Architecture((2, 2, 1)), REAL, seed=2)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(w.to_json()))
    code, out, _ = run(capsys, "hpoly", "--weights", str(wfile), "--slices")
    assert code == 0
    blob = json.loads(out)
    assert blob["H"]["nvars"] == 3
    assert blob["denominator"]["degree"] == 2


def test_train_small(tmp_path, capsys):
    code, out, _ = run(capsys, "train", "--inits", "2", "--epochs", "30",
                       "--seed", "1", "--out-dir", str(tmp_path / "runs"))
    assert code == 0
    assert "runs=2" in out
    assert (tmp_path / "runs" / "aggregate.csv").exists()


@pytest.mark.parametrize("argv", [
    ("--epochs", "0"),
    ("--grid", "0"),
    ("--grid", "1"),
    ("--grid", "2"),
    ("--grid", "4"),
    ("--grid", "3", "--exclusion-radius", "0.9"),
    ("--clip", "-1"),
    ("--clip", "0"),
    ("--lr", "0"),
    ("--success-loss", "nan"),  # every comparison with NaN is false
    ("--success-angle", "nan"),
])
def test_train_bad_input_is_one_line_error(capsys, argv):
    _assert_one_line_error(*run(capsys, "train", "--inits", "1", "--epochs", "5", *argv))


def test_non_integral_exponents_are_one_line_errors(tmp_path, capsys):
    half = {"nvars": 2, "degree": 2, "terms": [{"exp": [1.5, 0.5], "re": 1.0}]}
    tup = {"numerators": [{"nvars": 2, "degree": 1, "terms": [{"exp": [0.5, 0.5], "re": 1.0}]}],
           "denominator": lin(1, 1).mul(lin(1, -1)).to_json()}
    nvars = {"nvars": 2.9, "degree": 2, "terms": [{"exp": [1, 1], "re": 1.0}]}
    files = {}
    for name, obj in (("half", half), ("tup", tup), ("nvars", nvars)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    for argv in (("factor", "--poly", files["half"]),
                 ("factor", "--binary", "--poly", files["half"]),
                 ("membership", "--arch", "2,2,1", "--tuple", files["tup"]),
                 ("factor", "--poly", files["nvars"])):
        _assert_one_line_error(*run(capsys, *map(str, argv)))


@pytest.mark.parametrize("argv, arch, field, mats", [
    (("eval", "--x", "1,5"), [2, 2, 1], "real", [[[1, 2], [3]], [[1, 1]]]),
    (("eval", "--x", "1,5"), [2, 2.9, 1], "real", [[[1, 2], [3, 1]], [[1, 1]]]),
    (("forward", "--arch", "2,2,2,1"), [2, 2, 2, 1], "real",
     [[[1, 2], [3, 1]], [[1, 1], [2]], [[1, 1]]]),
    (("eval", "--x", "1,5"), [2, 2, 1], "complex", [[[1, 2], [3, 1]], [[1, [1]]]]),
    (("eval", "--x", "1,5"), [2, 2, 1], "complex", [[[1, 2], [3, 1]], [[1, [1, 2, 3]]]]),
], ids=["eval-ragged", "eval-fractional-width", "forward-ragged",
        "eval-complex-one-entry", "eval-complex-three-entries"])
def test_malformed_weights_are_one_line_errors(tmp_path, capsys, argv, arch, field, mats):
    f = tmp_path / "w.json"
    f.write_text(json.dumps({"arch": arch, "field": field, "mats": mats}))
    _assert_one_line_error(*run(capsys, *argv, "--weights", str(f)))


@pytest.mark.parametrize("argv", [
    ("dim", "--arch", "2,2,1", "--prime", "4"),
    ("dim", "--arch", "2,2,1", "--prime", "999983"),
    ("census", "--max-params", "6", "--max-layers", "2", "--prime", "4"),
    ("forward", "--arch", "2,2,1", "--field", "gfp", "--prime", "4"),
    ("factor", "--poly", "{tmp}/empty.json"),
    ("factor", "--poly", "{tmp}/wrong_degree.json"),
])
def test_bad_prime_or_malformed_form_is_one_line_error(tmp_path, capsys, argv):
    (tmp_path / "empty.json").write_text(json.dumps({"nvars": 2, "degree": 2, "terms": []}))
    (tmp_path / "wrong_degree.json").write_text(json.dumps(
        {"nvars": 2, "degree": 2, "terms": [{"exp": [2, 1], "re": 1.0}]}))
    _assert_one_line_error(*run(capsys, *(a.format(tmp=tmp_path) for a in argv)))


DIVERGED = ("train", "--inits", "1", "--epochs", "1", "--lr", "1e308")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_train_diverged_run_is_not_a_partial_success(tmp_path, capsys):
    # one step at lr 1e308 leaves infinite first-layer weights
    code, out, _ = run(capsys, *DIVERGED, "--out-dir", str(tmp_path))
    assert code == 0
    assert "partial_success=0" in out
    rows = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert rows[1].split(",")[2:4] == ["90.0", "90.0"]


def test_train_run_files_are_strict_json(tmp_path, capsys):
    assert run(capsys, *DIVERGED, "--out-dir", str(tmp_path))[0] == 0
    blob = _strict_json((tmp_path / "run0000_weights.json").read_text())
    assert blob["final"] == [[[None, None], [None, None]], [[None, None]]]
    assert all(isinstance(v, float) for m in blob["initial"] for row in m for v in row)


def _square(*terms):
    return {"nvars": 2, "degree": 2, "terms": [{"exp": e, "re": c} for e, c in terms]}


@pytest.mark.parametrize("argv, obj", [
    (("factor", "--poly"), _square(([2, 0], True), ([0, 2], 1.0))),
    (("factor", "--poly"), _square(([True, True], 1.0))),
    (("eval", "--x", "1,5", "--weights"),
     {"arch": [2, 2, 1], "field": "real", "mats": [[[1, 2], [3, "1.5"]], [[1, 1]]]}),
    (("eval", "--x", "1,5", "--weights"),
     {"arch": [2, 2, 1], "field": "gfp", "mats": [[[1, 2], [3, 2.7]], [[1, 1]]]}),
    (("eval", "--x", "1,5", "--weights"),
     {"arch": [2, 2, 1], "field": "gfp", "mats": [[[1, 2], [3, "5"]], [[1, 1]]]}),
    (("eval", "--x", "1,5", "--weights"),
     {"arch": [2, 2, 1], "field": "gfp", "mats": [[[1, 2], [3, True]], [[1, 1]]]}),
    (("eval", "--x", "1,5", "--weights"),
     {"arch": [2, 2, True], "field": "real", "mats": [[[1, 2], [3, 1]], [[1, 1]]]}),
], ids=["factor-bool-coefficient", "factor-bool-exponents", "eval-real-string-entry",
        "eval-gfp-fractional-entry", "eval-gfp-string-entry", "eval-gfp-bool-entry",
        "eval-bool-width"])
def test_json_bools_strings_and_fractions_are_not_numbers(tmp_path, capsys, argv, obj):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(obj))
    _assert_one_line_error(*run(capsys, *argv, str(f)))


@pytest.mark.parametrize("argv", [("eval", "--x", "1,2"), ("hpoly",), ("forward", "--arch", "2,2,1")],
                         ids=["eval", "hpoly", "forward"])
def test_gfp_weights_with_a_float_modulus_is_one_line_error(tmp_path, capsys, argv):
    # "p": 7.0 passed the primality test and built GF(7.0) with float
    # residues: hpoly and forward exited 0, eval ended in a traceback
    obj = Weights.random(Architecture((2, 2, 1)), PrimeField(7), seed=3).to_json()
    f = tmp_path / "w.json"
    f.write_text(json.dumps({**obj, "p": 7.0}))
    _assert_one_line_error(*run(capsys, *argv, "--weights", str(f)))


@pytest.mark.parametrize("field", ["gfp", "real"])
def test_eval_pair_entry_outside_complex_is_one_line_error(tmp_path, capsys, field):
    # only a complex entry is a [re, im] pair; gfp weights read [4, 7] as 4
    f = tmp_path / "w.json"
    f.write_text(json.dumps({"arch": [2, 2, 1], "field": field,
                             "mats": [[[1, 2], [3, [4, 7]]], [[1, 1]]]}))
    _assert_one_line_error(*run(capsys, "eval", "--x", "1,5", "--weights", str(f)))


def test_reconstruct_first_layer_scaled_by_1e_minus_3(tmp_path, capsys):
    # the factorization constant is far from 1; folding it into one row of W1
    # made the span solve drop a column (SpanTest, residual 1.01, exit 2)
    w = Weights.random(Architecture((2, 5, 1)), REAL, seed=3)
    w = Weights(w.arch, REAL, (tuple(tuple(1e-3 * v for v in row) for row in w.mats[0]), w.mats[1]))
    wfile, tfile = tmp_path / "w.json", tmp_path / "t.json"
    wfile.write_text(json.dumps(w.to_json()))
    assert run(capsys, "forward", "--arch", "2,5,1", "--weights", str(wfile),
               "--out", str(tfile))[0] == 0
    code, out, _ = run(capsys, "reconstruct", "--tuple", str(tfile), "--arch", "2,5,1")
    assert code == 0
    assert json.loads(out)["in_model"]


def _run_recording_warnings(capsys, *argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    return code, out, err, [str(w.message) for w in caught]


@pytest.mark.parametrize("value", [1e308, 1e-310])
def test_factor_binary_near_float_range_ends(tmp_path, capsys, value):
    f = tmp_path / "q.json"
    f.write_text(json.dumps(_square(([2, 0], value), ([1, 1], value), ([0, 2], value))))
    code, out, err, caught = _run_recording_warnings(capsys, "factor", "--poly", str(f), "--binary")
    assert (code, err, caught) == (0, "", [])
    assert _strict_json(out)["decomposable"]


def test_train_diverged_run_prints_only_the_summary(tmp_path, capsys):
    code, out, err, caught = _run_recording_warnings(capsys, *DIVERGED, "--out-dir", str(tmp_path))
    assert code == 0
    assert out == "runs=1 full_success=0 partial_success=0\n"
    assert (err, caught) == ("", [])


def _binary_form(degree, *terms):
    return HomPoly(COMPLEX, 2, degree, {e: complex(c) for e, c in terms})


# drawn by test_cli_fuzz.test_extreme_coefficients: P / (factor constant)
# overflows, and lstsq turned the infinite right-hand side into NaN weights
OVERFLOWING_RHS = RationalTuple(
    (_binary_form(1, ((1, 0), 1e308), ((0, 1), -0.06572167817273478)),),
    _binary_form(2, ((2, 0), -0.3857817287739105), ((1, 1), 0.724798893977169),
                 ((0, 2), -0.3403891347161195)))
# a finite right-hand side whose least-squares solution overflows: the span
# residual is NaN, and the weights it let through held inf
OVERFLOWING_SOLUTION = RationalTuple(
    (_binary_form(1, ((1, 0), 0.6078742109681368 - 0.41521825137418117j),
                  ((0, 1), 0.5283976567479145 - 0.3514576021732614j)),
     _binary_form(1, ((1, 0), 1e308), ((0, 1), 0.9186201636408176 - 1.3995234019576617j))),
    _binary_form(2, ((2, 0), 0.5318692401761279 - 0.28365228750332866j),
                 ((1, 1), 1.2017281937462474 + 0.4693592130290336j),
                 ((0, 2), 0.13807254981722225 + 0.594576650886483j)))


@pytest.mark.parametrize("t, argv", [
    (OVERFLOWING_RHS, ("reconstruct", "--arch", "2,2,1")),
    (OVERFLOWING_RHS, ("membership", "--binary")),
    (OVERFLOWING_SOLUTION, ("reconstruct", "--arch", "2,2,2")),
], ids=["rhs-reconstruct", "rhs-membership", "solution-reconstruct"])
def test_overflowing_span_solve_is_a_verdict(tmp_path, capsys, t, argv):
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, err, caught = _run_recording_warnings(capsys, *argv, "--tuple", tfile)
    assert (code, err, caught) == (2, "", [])
    verdict = _strict_json(out)
    assert verdict["in_model"] is False and verdict["stage_failed"] == "SpanTest"
    assert verdict["residual"] is None


def test_reconstruct_tuple_with_a_shared_monomial_factor_warns_nothing(tmp_path, capsys):
    # the recovered weights' forward map shares the factor x2; verifying them
    # must not pass forward_recursive's warning about it on to stderr
    t = RationalTuple(
        (_binary_form(1, ((1, 0), 648.8039577439586), ((0, 1), 1.0505047130663045e71)),
         _binary_form(1, ((1, 0), 1.2261443226865548e-114), ((0, 1), -1.9303198276062532e-17))),
        _binary_form(2, ((2, 0), -1.9526612525555114e-276), ((0, 2), -4.78626733288127e280)))
    tfile = write_tuple(tmp_path / "t.json", t)
    code, out, err, caught = _run_recording_warnings(capsys, "reconstruct", "--arch", "2,2,2",
                                                     "--tuple", tfile)
    assert (code, err, caught) == (0, "", [])
    assert _strict_json(out)["in_model"] is True


@pytest.mark.parametrize("layers", ["0", "1"])
def test_membership_binary_below_two_layers_is_one_line_error(tmp_path, capsys, layers):
    # (2, k) has no hidden layer, so these linear numerators over a constant
    # are in the model; the binary route used to reject them
    t = RationalTuple((lin(1, 2), lin(3, -1)), HomPoly.one(COMPLEX, 2))
    tfile = write_tuple(tmp_path / "t.json", t)
    _assert_one_line_error(*run(capsys, "membership", "--binary", "--layers", layers,
                                "--tuple", tfile))


# Every subcommand's options, written out: (option strings, dest, type,
# default, required, choices, action class).  The help action is left out.
_STORE, _FLAG = argparse._StoreAction, argparse._StoreTrueAction
_OUT = ("--out", "out", None, None, False, None, _STORE)
_SEED = ("--seed", "seed", int, 0, False, None, _STORE)
_PRIME = ("--prime", "prime", int, 2147483647, False, None, _STORE)
_LAYERS = ("--layers", "layers", int, 2, False, None, _STORE)
_SAMPLES = ("--samples", "samples", int, 2, False, None, _STORE)
_WORKERS = ("--workers", "workers", int, 1, False, None, _STORE)
_BINARY = ("--binary", "binary", None, False, False, None, _FLAG)
OPTIONS = {
    "degrees": [("--arch", "arch", None, None, True, None, _STORE)],
    "forward": [("--arch", "arch", None, None, True, None, _STORE),
                ("--weights", "weights", None, None, False, None, _STORE),
                ("--field", "field", None, "real", False, ["real", "complex", "gfp"], _STORE),
                _PRIME, _SEED, _BINARY, _OUT],
    "eval": [("--weights", "weights", None, None, True, None, _STORE),
             ("--x", "x", None, None, True, None, _STORE)],
    "factor": [("--poly", "poly", None, None, True, None, _STORE), _BINARY,
               ("--tol", "tol", tolerance, 1e-8, False, None, _STORE), _SEED, _OUT],
    "reconstruct": [("--tuple", "tuple", None, None, True, None, _STORE),
                    ("--arch", "arch", None, None, False, None, _STORE), _BINARY, _LAYERS,
                    ("--tol", "tol", tolerance, 1e-6, False, None, _STORE), _SEED,
                    ("--real-only", "real_only", None, False, False, None, _FLAG), _OUT],
    "membership": [("--tuple", "tuple", None, None, True, None, _STORE),
                   ("--arch", "arch", None, None, False, None, _STORE), _BINARY, _LAYERS,
                   ("--tol", "tol", tolerance, None, False, None, _STORE), _OUT],
    "dim": [("--arch", "arch", None, None, True, None, _STORE), _PRIME, _SEED, _SAMPLES,
            ("--json", "json", None, False, False, None, _FLAG), _OUT],
    "census": [("--max-params", "max_params", int, 30, False, None, _STORE),
               ("--max-layers", "max_layers", int, 5, False, None, _STORE),
               ("--max-width", "max_width", int, 9, False, None, _STORE),
               _PRIME, _SEED, _SAMPLES, _WORKERS,
               ("--count-only", "count_only", None, False, False, None, _FLAG), _OUT],
    "hpoly": [("--weights", "weights", None, None, True, None, _STORE),
              ("--slices", "slices", None, False, False, None, _FLAG), _OUT],
    "train": [("--inits", "inits", int, 100, False, None, _STORE),
              ("--epochs", "epochs", int, 20000, False, None, _STORE),
              ("--lr", "lr", float, 1e-3, False, None, _STORE), _SEED, _WORKERS,
              ("--clip", "clip", float, None, False, None, _STORE),
              ("--exclusion-radius", "exclusion_radius", float, 0.0, False, None, _STORE),
              ("--grid", "grid", int, 21, False, None, _STORE),
              ("--success-loss", "success_loss", float, 1e-3, False, None, _STORE),
              ("--success-angle", "success_angle", float, 5.0, False, None, _STORE),
              ("--out-dir", "out_dir", None, None, False, None, _STORE)],
}


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_subcommand_options_are_pinned(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    got = {tuple(a.option_strings): (a.dest, a.type, a.default, a.required, a.choices, type(a))
           for a in sub.choices[name]._actions if not isinstance(a, argparse._HelpAction)}
    assert got == {(flag,): tuple(rest) for flag, *rest in OPTIONS[name]}


def test_unserializable_output_leaves_no_out_file(tmp_path, capsys):
    # the JSON text is built before --out opens, so an infinite coefficient
    # is one error line and no empty file
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"arch": [2, 2, 1], "field": "real",
                                 "mats": [[[1e200, 1e200], [1e200, -1e200]], [[1e200, 1e200]]]}))
    target = tmp_path / "o.json"
    _assert_one_line_error(*run(capsys, "forward", "--arch", "2,2,1", "--weights", str(wfile),
                                "--out", str(target)))
    assert not target.exists()


def test_census_out_file_matches_stdout(tmp_path, capsys):
    def rows(text):  # every column bar runtime_s
        return [line.split(",")[:-2] + line.split(",")[-1:] for line in text.split("\n")]

    argv = ("census", "--max-params", "12", "--max-layers", "3")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    target = tmp_path / "tab.csv"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    written = target.read_bytes().decode()
    assert len(rows(written)) > 2 and rows(written) == rows(out)


# a (2, 2, 1) network whose two hidden units read the same coordinate: its
# tuple 5 x1 / x1^2 shares the monomial factor x1
SHARED_FACTOR_WEIGHTS = {"arch": [2, 2, 1], "field": "real", "mats": [[[1, 0], [1, 0]], [[2, 3]]]}
SHARED_FACTOR_TUPLE = """{
 "numerators": [
  {
   "nvars": 2,
   "degree": 1,
   "terms": [
    {
     "exp": [
      1,
      0
     ],
     "re": 5.0
    }
   ]
  }
 ],
 "denominator": {
  "nvars": 2,
  "degree": 2,
  "terms": [
   {
    "exp": [
     2,
     0
    ],
    "re": 1.0
   }
  ]
 }
}
"""


@pytest.mark.parametrize("flags", [(), ("--binary",)], ids=["recursive", "binary"])
def test_forward_notes_a_shared_monomial_factor_once(tmp_path, capsys, flags):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(SHARED_FACTOR_WEIGHTS))
    code, out, err, caught = _run_recording_warnings(capsys, "forward", "--arch", "2,2,1",
                                                     "--weights", str(wfile), *flags)
    assert (code, out, caught) == (0, SHARED_FACTOR_TUPLE, [])
    assert err == ("note: output tuple shares the monomial factor (1, 0); "
                   "the map is taken without cancellation\n")


@pytest.mark.parametrize("flags", [(), ("--binary",)], ids=["recursive", "binary"])
def test_forward_without_a_shared_factor_prints_no_note(capsys, flags):
    code, out, err = run(capsys, "forward", "--arch", "2,2,2,1", "--seed", "3", *flags)
    assert (code, err) == (0, "")
    assert _strict_json(out)["denominator"]["degree"] == 2


def test_forward_weights_of_another_architecture_is_one_line_error(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(SHARED_FACTOR_WEIGHTS))
    _assert_one_line_error(*run(capsys, "forward", "--arch", "2,3,1", "--weights", str(wfile)))


def test_eval_at_a_pole_is_one_line_error(tmp_path, capsys):
    # the first hidden unit reads x1 - x2, which vanishes at (1, 1)
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"arch": [2, 2, 1], "field": "real",
                                 "mats": [[[1, -1], [1, 1]], [[1, 1]]]}))
    code, out, err = run(capsys, "eval", "--weights", str(wfile), "--x", "1,1")
    _assert_one_line_error(code, out, err)
    assert err.startswith("error: pole hit:")


def test_eval_non_finite_output_is_one_line_error(tmp_path, capsys):
    # both hidden units read 1e-10 at (1e-10, 1e-10), so the output 2 * 1e300 * 1e10 overflows
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"arch": [2, 2, 1], "field": "real",
                                 "mats": [[[1e-300, 1.0], [1.0, 1e-300]], [[1e300, 1e300]]]}))
    code, out, err = run(capsys, "eval", "--weights", str(wfile), "--x", "1e-10,1e-10")
    _assert_one_line_error(code, out, err)
    assert "not JSON compliant" in err


@pytest.mark.parametrize("command", ["reconstruct", "membership"])
def test_tuple_command_without_arch_is_one_line_error(tmp_path, capsys, command):
    t = forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1))
    _assert_one_line_error(*run(capsys, command, "--tuple", write_tuple(tmp_path / "t.json", t)))


def test_reconstruct_binary_takes_the_output_count_from_the_tuple(tmp_path, capsys):
    # two numerators make a (2, 2, 2, 2) tower, once a one-line error: the
    # verdict is membership's at the same tolerance; none is still an error
    t = forward_recursive(Weights.random(Architecture((2, 2, 2, 2)), COMPLEX, seed=1))
    tfile = write_tuple(tmp_path / "t.json", t)
    outs = []
    for command in (("reconstruct",), ("membership", "--tol", "1e-6")):
        code, out, err = run(capsys, *command, "--binary", "--layers", "3", "--tuple", tfile)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert _strict_json(outs[0])["in_model"] is True
    empty = write_tuple(tmp_path / "empty.json", RationalTuple((), t.denominator))
    _assert_one_line_error(*run(capsys, "reconstruct", "--binary", "--layers", "3", "--tuple", empty))


def test_reconstruct_one_layer_binary_arch_is_one_line_error(tmp_path, capsys):
    # --arch 2,k names a one-layer tower, which no route reconstructs: with
    # one numerator, --arch 2,2 was DegreeTest (exit 2) and --arch 2,1 an error
    t = forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1))
    tfile = write_tuple(tmp_path / "t.json", t)
    for arch in ("2,1", "2,2"):
        _assert_one_line_error(*run(capsys, "reconstruct", "--arch", arch, "--tuple", tfile))


@pytest.mark.parametrize("dims, rank, ambient, params", [
    ((3, 3, 3, 3), 22, 136, 27), ((2, 3, 4, 3), 24, 39, 30), ((4, 3, 2, 2, 3), 22, 372, 28),
    ((2, 2, 2, 3, 2, 1), 14, 15, 22), ((2, 2, 4, 2, 2, 1), 17, 23, 26)])
def test_dim_json_reference_rows(capsys, dims, rank, ambient, params):
    code, out, err = run(capsys, "dim", "--arch", ",".join(map(str, dims)), "--json")
    assert (code, err) == (0, "")
    report = _strict_json(out)
    assert report.pop("runtime_seconds") >= 0
    assert report == {"arch": list(dims), "jacobian_rank": rank, "ambient_dim": ambient,
                      "param_count": params, "conjectured_dim": rank, "fiber_upper_bound": rank,
                      "prime": 2147483647, "seed": 0, "status": "ok"}


def _scaled_tuple(t, k):
    def scaled(p):
        return HomPoly(COMPLEX, p.nvars, p.degree,
                       {e: complex(math.ldexp(c.real, k), math.ldexp(c.imag, k))
                        for e, c in p.terms.items()})
    return RationalTuple(tuple(map(scaled, t.numerators)), scaled(t.denominator))


@pytest.mark.parametrize("k", [0, -1010])
def test_membership_resultant_screen_of_a_tuple_scaled_by_2_to_minus_1010(tmp_path, capsys, k):
    # an off-model (2, 2, 2, 2) tuple; at 2^-1010 its coefficients are about
    # 1e-304, below the old 1e-300 floor of a resultant screen's scale, and
    # its resultants shrank below the tolerance, so it passed (exit 0); the
    # row peel reads the forms scaled by a power of two, and its forward-map
    # check measures the same residual at either scale
    t = _scaled_tuple(random_tuple(Architecture((2, 2, 2, 2)), 0), k)
    code, out, err = run(capsys, "membership", "--binary", "--layers", "3",
                         "--tuple", write_tuple(tmp_path / "t.json", t))
    assert (code, err) == (2, "")
    verdict = _strict_json(out)
    assert verdict["in_model"] is False and verdict["stage_failed"] == "VerificationFail"
    assert verdict["residual"] == pytest.approx(0.2301, abs=1e-4)


@pytest.mark.parametrize("dims", [(2, 2, 1), (3, 3, 2)])
def test_reconstruct_shallow_denominator_of_overflowing_magnitude_is_factor_test(
        tmp_path, capsys, dims):
    # |1.5e308 + 1.5e308j| overflows: the shallow route printed a one-line
    # error (exit 1) where the binary peel gives this verdict
    t = forward_recursive(Weights.random(Architecture(dims), COMPLEX, seed=1))
    terms = dict(t.denominator.terms)
    terms[next(iter(terms))] = 1.5e308 + 1.5e308j
    t = RationalTuple(t.numerators, HomPoly(COMPLEX, dims[0], t.denominator.degree, terms))
    code, out, err, caught = _run_recording_warnings(
        capsys, "reconstruct", "--arch", ",".join(map(str, dims)),
        "--tuple", write_tuple(tmp_path / "t.json", t))
    assert (code, err, caught) == (2, "", [])
    verdict = _strict_json(out)
    assert (verdict["in_model"], verdict["stage_failed"], verdict["residual"]) == (
        False, "FactorTest", None)


@pytest.mark.parametrize("tol, code, stage", [("0", 2, "VerificationFail"), ("1e-3", 0, "None")])
def test_binary_peel_remainder_above_tol_is_verification_fail(tmp_path, capsys, tol, code, stage):
    # the forward-map check of the peeled weights leaves a rounding-size
    # residual: above --tol 0, so the verdict is VerificationFail and reports
    # that measured residual (the row peel divides nothing that could fail first)
    t = forward_recursive(Weights.random(Architecture((2, 2, 2, 1)), COMPLEX, seed=1))
    got, out, err = run(capsys, "reconstruct", "--binary", "--layers", "3", "--tol", tol,
                        "--tuple", write_tuple(tmp_path / "t.json", t))
    verdict = _strict_json(out)
    assert (got, err, verdict["stage_failed"]) == (code, "", stage)
    residual = verdict["residual"]
    assert isinstance(residual, float) and math.isfinite(residual)
    assert (residual > float(tol)) == (code == 2)


@pytest.mark.parametrize("flags, code, stage", [((), 0, "None"), (("--real-only",), 2, "SpanTest")])
def test_real_only_rejects_a_complex_output_layer(tmp_path, capsys, flags, code, stage):
    # the denominator splits over the reals, so only the output layer's
    # imaginary part keeps this tuple out of the real model
    w = Weights(Architecture((2, 3, 1)), COMPLEX, ([[1, 2], [3, -1], [0.5, 1]], [[1 + 1j, 2, -1]]))
    got, out, err = run(capsys, "reconstruct", "--arch", "2,3,1", *flags,
                        "--tuple", write_tuple(tmp_path / "t.json", forward_recursive(w)))
    verdict = _strict_json(out)
    assert (got, err, verdict["in_model"], verdict["stage_failed"]) == (code, "", code == 0, stage)
