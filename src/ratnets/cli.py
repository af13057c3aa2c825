"""Command-line interface: one subcommand per capability, JSON/CSV I/O.

Exit codes: 0 success (affirmative verdict), 2 negative verdict, 1 error.
All randomness flows from --seed flags; --tol overrides module defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .fields import COMPLEX, DEFAULT_PRIME, field_from_name
from .poly import HomPoly
from .network import (Architecture, RationalTuple, Weights, degrees, eval_network,
                      forward_binary, forward_recursive, DomainError)
from .factor import build_H, factor_binary_form, factor_multilinear, h_slices
from .reconstruct import membership_binary_multioutput, reconstruct_auto
from .geometry import (census, census_to_csv, enumerate_architectures,
                       jacobian_rank_mod_p, rank_test_membership)
from .train import TrainConfig, run_experiment, sample_lattice


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_arch(text: str) -> Architecture:
    try:
        return Architecture(tuple(int(t) for t in text.split(",")))
    except Exception as ex:
        raise CliError(f"bad architecture {text!r}: {ex}") from ex


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _load(path: str, parse):
    """parse(JSON object of the file); a wrongly shaped object is a CliError."""
    obj = _load_json(path)
    try:
        return parse(obj)
    except TypeError as ex:
        raise CliError(f"malformed {path}: {ex}") from ex


def _load_poly(path: str) -> HomPoly:
    return _load(path, lambda obj: HomPoly.from_json(COMPLEX, obj))


def _load_tuple(path: str) -> RationalTuple:
    return _load(path, lambda obj: RationalTuple.from_json(COMPLEX, obj))


def _load_weights(path: str) -> Weights:
    return _load(path, Weights.from_json)


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=1)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def cmd_degrees(args) -> int:
    prof = degrees(_parse_arch(args.arch))
    print(f"n={prof.numerator_degree} m={prof.denominator_degree}")
    return 0


def cmd_forward(args) -> int:
    arch = _parse_arch(args.arch)
    if args.weights:
        w = _load_weights(args.weights)
        if w.arch != arch:
            raise CliError("weights file does not match --arch")
    else:
        field = field_from_name(args.field, args.prime)
        w = Weights.random(arch, field, seed=args.seed)
    t = forward_binary(w) if args.binary else forward_recursive(w)
    _emit(t.to_json(), args.out)
    return 0


def cmd_eval(args) -> int:
    w = _load_weights(args.weights)
    f = w.field
    try:
        # exact fields take integers, float fields any real number
        point = [f.from_int(int(v)) if f.exact else float(v) for v in args.x.split(",")]
    except ValueError as ex:
        raise CliError(f"bad point {args.x!r} for {f.name} weights: {ex}") from ex
    try:
        vec = eval_network(w, point)
    except DomainError as ex:
        raise CliError(f"pole hit: {ex}") from ex
    print(json.dumps([v if not isinstance(v, complex) else [v.real, v.imag] for v in vec]))
    return 0


def cmd_factor(args) -> int:
    p = _load_poly(args.poly)
    if args.binary:
        fz = factor_binary_form(p, tol=args.tol)
        _emit({"decomposable": True, **fz.to_json()}, args.out)
        return 0
    report = factor_multilinear(p, tol=args.tol, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.decomposable else 2


def cmd_reconstruct(args) -> int:
    t = _load_tuple(args.tuple)
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
    _emit(verdict.to_json(), args.out)
    return 0 if verdict.in_model else 2


def cmd_membership(args) -> int:
    t = _load_tuple(args.tuple)
    if args.binary:
        verdict = membership_binary_multioutput(list(t.numerators), t.denominator,
                                                args.layers, tol=args.tol)
        _emit(verdict.to_json(), args.out)
        return 0 if verdict.in_model else 2
    if not args.arch:
        raise CliError("--arch is required unless --binary is given")
    arch = _parse_arch(args.arch)
    res = rank_test_membership(list(t.numerators), t.denominator, arch, tol=args.tol)
    _emit({"in_model": res.ok, "moment_rank": res.rank,
           "necessary_only": res.necessary_only}, args.out)
    return 0 if res.ok else 2


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
                     timeout_s=args.timeout, max_width=args.max_width,
                     workers=args.workers, samples=args.samples)
    if args.out:
        with open(args.out, "w", newline="") as f:
            census_to_csv(reports, f)
    else:
        census_to_csv(reports, sys.stdout)
    timeouts = sum(r.status == "timeout" for r in reports)
    if timeouts:
        print(f"warning: {timeouts} of {len(reports)} architectures timed out", file=sys.stderr)
    return 0


def cmd_hpoly(args) -> int:
    w = _load_weights(args.weights)
    H = build_H(w)
    obj = H.to_json()
    if args.slices:
        n, _, k = w.arch.dims
        nums, den = h_slices(H, n, k)
        obj = {"H": obj, "numerators": [p.to_json() for p in nums],
               "denominator": den.to_json()}
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


def build_parser() -> _Parser:
    parser = _Parser(prog="ratnets", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrees", help="numerator/denominator degrees for an architecture")
    p.add_argument("--arch", required=True)
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("forward", help="output tuple of a (random or given) network")
    p.add_argument("--arch", required=True)
    p.add_argument("--weights")
    p.add_argument("--field", default="real", choices=["real", "complex", "gfp"])
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binary", action="store_true", help="use the binary closed form")
    p.add_argument("--out")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("eval", help="numeric network evaluation at a point")
    p.add_argument("--weights", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("factor", help="factor a form into linear forms")
    p.add_argument("--poly", required=True)
    p.add_argument("--binary", action="store_true", help="two-variable complete split")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("reconstruct", help="recover weights from an output tuple")
    p.add_argument("--tuple", required=True)
    p.add_argument("--arch", help="n,m,k for the one-hidden-layer procedure")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--real-only", action="store_true", dest="real_only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("membership", help="membership screens (moment rank / resultants)")
    p.add_argument("--tuple", required=True)
    p.add_argument("--arch")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("dim", help="variety dimension via finite-field Jacobian rank")
    p.add_argument("--arch", required=True)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("census", help="dimension survey over bounded architectures")
    p.add_argument("--max-params", type=int, default=30)
    p.add_argument("--max-layers", type=int, default=5)
    p.add_argument("--max-width", type=int, default=9)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=2)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("hpoly", help="product-form polynomial of a shallow net")
    p.add_argument("--weights", required=True)
    p.add_argument("--slices", action="store_true", help="also emit the tuple slices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hpoly)

    p = sub.add_parser("train", help="pole-learning experiment")
    p.add_argument("--inits", type=int, default=100)
    p.add_argument("--epochs", type=int, default=20000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--clip", type=float, default=None)
    p.add_argument("--exclusion-radius", type=float, default=0.0, dest="exclusion_radius")
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--success-loss", type=float, default=1e-3, dest="success_loss")
    p.add_argument("--success-angle", type=float, default=5.0, dest="success_angle")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, ArithmeticError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
