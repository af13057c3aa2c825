import json

import pytest

from ratnets.cli import main
from ratnets.fields import COMPLEX, REAL, PrimeField
from ratnets.network import Architecture, Weights, eval_network, forward_recursive
from ratnets.poly import HomPoly, product


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


def test_arithmetic_failure_is_one_line_error(tmp_path, capsys):
    # no residual meets a negative tolerance, so the binary split raises
    # NonConvergenceError
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


def test_reconstruct_malformed_numerators_is_one_line_error(tmp_path, capsys):
    t = forward_recursive(Weights.random(Architecture((2, 2, 1)), COMPLEX, seed=1)).to_json()
    t["numerators"] = 3
    f = tmp_path / "t.json"
    f.write_text(json.dumps(t))
    _assert_one_line_error(*run(capsys, "reconstruct", "--tuple", str(f), "--arch", "2,2,1"))


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

    quadric = HomPoly(COMPLEX, 3, 2, {(2, 0, 0): 1 + 0j, (0, 2, 0): 1 + 0j, (0, 0, 2): 1 + 0j})
    code, out, _ = run(capsys, "factor", "--poly", write_poly(tmp_path / "q2.json", quadric))
    assert code == 2
    assert json.loads(out)["decomposable"] is False


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


def test_dim_prints_rank(capsys):
    code, out, _ = run(capsys, "dim", "--arch", "2,2,1", "--seed", "7")
    assert code == 0
    assert out.strip() == "5"


def test_dim_reference_architecture(capsys):
    code, out, _ = run(capsys, "dim", "--arch", "3,3,3,3", "--seed", "7")
    assert code == 0
    assert out.strip() == "22"


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


def test_census_warns_on_timeouts(capsys):
    code, out, err = run(capsys, "census", "--max-params", "8", "--max-layers", "2",
                         "--timeout", "1e-9")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows and all(r.endswith(",timeout") for r in rows)
    assert err.strip() == f"warning: {len(rows)} of {len(rows)} architectures timed out"


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
])
def test_train_bad_input_is_one_line_error(capsys, argv):
    _assert_one_line_error(*run(capsys, "train", "--inits", "1", "--epochs", "5", *argv))
