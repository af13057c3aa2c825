"""Command-line interface: one subcommand per capability, JSON/CSV I/O.

Exit codes: 0 success (affirmative verdict), 2 negative verdict, 1 error.
All randomness flows from --seed flags; --tol overrides module defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys

from . import __version__
from .fields import COMPLEX, DEFAULT_PRIME, field_from_name
from .poly import HomPoly
from .network import (Architecture, RationalTuple, Weights, degrees, eval_network,
                      forward_binary, forward_recursive, DomainError)
from .factor import (REASSEMBLY_TOL, FactorFailure, FactorReport, NonConvergenceError, build_H,
                     factor_binary_form, factor_multilinear, h_slices)
from .reconstruct import membership_binary_multioutput, reconstruct_auto
from .geometry import (census, census_to_csv, enumerate_architectures,
                       jacobian_rank_mod_p, rank_test_membership)
from .train import TrainConfig, run_experiment, sample_lattice


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-9" for an option; read exponent notation as a
        # negative number too, so that the option's type check sees it.  This
        # sets a private attribute that `_parse_optional` reads (Python 3.11
        # on); should it be dropped, test_negative_tol_reaches_the_tolerance_check fails
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise CliError(message)


def _parse_arch(text: str) -> Architecture:
    try:
        return Architecture(tuple(int(t) for t in text.split(",")))
    except Exception as ex:
        raise CliError(f"bad architecture {text!r}: {ex}") from ex


def tolerance(text: str) -> float:
    """A --tol value: a float >= 0.  Every comparison with NaN is false, and
    no residual meets a negative bound."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError("tolerance must be a number >= 0")
    return value


def _load(path: str, parse):
    """parse(JSON object of the file); a wrongly shaped object is a CliError."""
    with open(path) as f:
        obj = json.load(f)
    try:
        return parse(obj)
    except TypeError as ex:
        raise CliError(f"malformed {path}: {ex}") from ex


def _sink(out: str | None):
    """The --out file, or stdout when none is given."""
    return open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout)


def _emit(obj, out: str | None):
    # serialize first: a value JSON cannot hold leaves no empty --out file
    text = json.dumps(obj, indent=1, allow_nan=False)
    with _sink(out) as f:
        print(text, file=f)


def _verdict(obj, ok: bool, out: str | None) -> int:
    """Emit a verdict; exit 0 when affirmative, 2 when negative."""
    _emit(obj, out)
    return 0 if ok else 2


def cmd_degrees(args) -> int:
    prof = degrees(_parse_arch(args.arch))
    print(f"n={prof.numerator_degree} m={prof.denominator_degree}")
    return 0


def cmd_forward(args) -> int:
    arch = _parse_arch(args.arch)
    if args.weights:
        w = _load(args.weights, Weights.from_json)
        if w.arch != arch:
            raise CliError("weights file does not match --arch")
    else:
        field = field_from_name(args.field, args.prime)
        w = Weights.random(arch, field, seed=args.seed)
    t = forward_binary(w) if args.binary else forward_recursive(w)
    _emit(t.to_json(), args.out)
    cmf = t.common_monomial_factor()
    if any(cmf):
        print(f"note: output tuple shares the monomial factor {cmf}; "
              "the map is taken without cancellation", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    w = _load(args.weights, Weights.from_json)
    f = w.field
    try:
        # exact fields take integers, float fields any real number
        point = [f.from_int(int(v)) if f.exact else float(v) for v in args.x.split(",")]
        if not f.exact and not all(map(math.isfinite, point)):
            raise ValueError("coordinates must be finite")
    except ValueError as ex:
        raise CliError(f"bad point {args.x!r} for {f.name} weights: {ex}") from ex
    try:
        vec = eval_network(w, point)
    except DomainError as ex:
        raise CliError(f"pole hit: {ex}") from ex
    print(json.dumps([v if not isinstance(v, complex) else [v.real, v.imag] for v in vec],
                     allow_nan=False))
    return 0


def cmd_factor(args) -> int:
    p = _load(args.poly, lambda obj: HomPoly.from_json(COMPLEX, obj))
    if not args.binary:
        report = factor_multilinear(p, tol=args.tol, seed=args.seed)
        return _verdict(report.to_json(), report.decomposable, args.out)
    try:
        fz = factor_binary_form(p, tol=args.tol)
    except NonConvergenceError as ex:
        # an unverified split is a verdict, as for the multilinear factorizer
        reason = (FactorFailure.ROOT_FIND_FAIL if ex.residual is None
                  else FactorFailure.VERIFICATION_FAIL)
        obj = FactorReport(False, None, False, reason).to_json()
        if ex.residual is not None:
            obj["residual"] = ex.residual if math.isfinite(ex.residual) else None
        return _verdict(obj, False, args.out)
    return _verdict({"decomposable": True, **fz.to_json()}, True, args.out)


def cmd_reconstruct(args) -> int:
    t = _load(args.tuple, lambda obj: RationalTuple.from_json(COMPLEX, obj))
    if args.binary:
        if len(t.numerators) != 1:
            raise CliError("binary reconstruction expects a single numerator")
        arch = Architecture((2,) * args.layers + (1,))
    elif args.arch:
        arch = _parse_arch(args.arch)
    else:
        raise CliError("--arch is required unless --binary is given")
    verdict = reconstruct_auto(t, arch, tol=args.tol, seed=args.seed,
                               require_real=args.real_only)
    return _verdict(verdict.to_json(), verdict.in_model, args.out)


def cmd_membership(args) -> int:
    t = _load(args.tuple, lambda obj: RationalTuple.from_json(COMPLEX, obj))
    if args.binary:
        verdict = membership_binary_multioutput(t, args.layers, tol=args.tol)
        return _verdict(verdict.to_json(), verdict.in_model, args.out)
    if not args.arch:
        raise CliError("--arch is required unless --binary is given")
    arch = _parse_arch(args.arch)
    res = rank_test_membership(t, arch, tol=args.tol)
    return _verdict({"in_model": res.ok, "moment_rank": res.rank,
                     "necessary_only": res.necessary_only}, res.ok, args.out)


def cmd_dim(args) -> int:
    arch = _parse_arch(args.arch)
    report = jacobian_rank_mod_p(arch, seed=args.seed, p=args.prime, samples=args.samples)
    if args.json:
        _emit(report.to_json(), args.out)
    else:
        print(report.jacobian_rank)
        if report.fiber_upper_bound != report.ambient_dim:
            print(f"note: conjecture variants differ (fiber bound "
                  f"{report.fiber_upper_bound}, ambient {report.ambient_dim}); "
                  f"using min = {report.conjectured_dim}", file=sys.stderr)
    return 0


def cmd_census(args) -> int:
    if args.count_only:
        print(len(enumerate_architectures(args.max_params, args.max_layers, args.max_width)))
        return 0
    reports = census(args.max_params, args.max_layers, p=args.prime, seed=args.seed,
                     max_width=args.max_width, workers=args.workers, samples=args.samples)
    with _sink(args.out) as f:
        census_to_csv(reports, f)
    return 0


def cmd_hpoly(args) -> int:
    w = _load(args.weights, Weights.from_json)
    H = build_H(w)
    obj = H.to_json()
    if args.slices:
        n, _, k = w.arch.dims
        obj = {"H": obj, **h_slices(H, n, k).to_json()}
    _emit(obj, args.out)
    return 0


def cmd_train(args) -> int:
    config = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed,
                         clip=args.clip)
    dataset = sample_lattice(args.exclusion_radius, args.grid)
    summary = run_experiment(config, args.inits, dataset=dataset,
                             out_dir=args.out_dir, workers=args.workers,
                             success_loss=args.success_loss,
                             success_angle_deg=args.success_angle)
    print(f"runs={len(summary.records)} full_success={summary.n_full} "
          f"partial_success={summary.n_partial}")
    return 0


# add_argument keywords of the flags that several subcommands declare alike
SHARED = {
    "--arch": dict(required=True),
    "--weights": dict(required=True),
    "--tuple": dict(required=True),
    "--prime": dict(type=int, default=DEFAULT_PRIME),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=2,
                      help="most random points ranked (one more when they disagree);"
                      " a point that reaches the proven bound ends the sampling"),
    "--workers": dict(type=int, default=1),
    "--layers": dict(type=int, default=2),
    "--out": {},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="ratnets", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **SHARED[flag])
        return p

    command("degrees", cmd_degrees, "numerator/denominator degrees for an architecture", "--arch")

    p = command("forward", cmd_forward, "output tuple of a (random or given) network",
                "--arch", "--prime", "--seed", "--out")
    p.add_argument("--weights")
    p.add_argument("--field", default="real", choices=["real", "complex", "gfp"])
    p.add_argument("--binary", action="store_true", help="use the binary closed form")

    p = command("eval", cmd_eval, "numeric network evaluation at a point", "--weights")
    p.add_argument("--x", required=True)

    p = command("factor", cmd_factor, "factor a form into linear forms", "--seed", "--out")
    p.add_argument("--poly", required=True)
    p.add_argument("--binary", action="store_true", help="two-variable complete split")
    p.add_argument("--tol", type=tolerance, default=REASSEMBLY_TOL)

    p = command("reconstruct", cmd_reconstruct, "recover weights from an output tuple",
                "--tuple", "--layers", "--seed", "--out")
    p.add_argument("--arch", help="n,m,k for the one-hidden-layer procedure")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--tol", type=tolerance, default=1e-6)
    p.add_argument("--real-only", action="store_true")

    p = command("membership", cmd_membership, "membership screens (moment rank / resultants)",
                "--tuple", "--layers", "--out")
    p.add_argument("--arch")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--tol", type=tolerance, default=1e-8)

    p = command("dim", cmd_dim, "variety dimension via finite-field Jacobian rank",
                "--arch", "--prime", "--seed", "--samples", "--out")
    p.add_argument("--json", action="store_true")

    p = command("census", cmd_census, "dimension survey over bounded architectures",
                "--prime", "--seed", "--samples", "--workers", "--out")
    p.add_argument("--max-params", type=int, default=30)
    p.add_argument("--max-layers", type=int, default=5)
    p.add_argument("--max-width", type=int, default=9)
    p.add_argument("--count-only", action="store_true")

    p = command("hpoly", cmd_hpoly, "product-form polynomial of a shallow net",
                "--weights", "--out")
    p.add_argument("--slices", action="store_true", help="also emit the tuple slices")

    p = command("train", cmd_train, "pole-learning experiment", "--seed", "--workers")
    p.add_argument("--inits", type=int, default=100)
    p.add_argument("--epochs", type=int, default=20000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip", type=float, default=None)
    p.add_argument("--exclusion-radius", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--success-loss", type=float, default=1e-3)
    p.add_argument("--success-angle", type=float, default=5.0)
    p.add_argument("--out-dir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, OSError, ValueError, KeyError, ArithmeticError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
