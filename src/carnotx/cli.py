"""Command-line driver.

Subcommands cover the main verification workflows: the counterexample
scaling sweep, finite-difference validation of the radial calculus, the
extremal-operator self-test, the convexity catalog, the pointwise trace
bound, and gauge-ball volume estimation.  Exit status is 0 when every
check passes, 1 when a check is falsified (the report is still written),
and 2 on usage or I/O errors, on a result too large for a float, and when
the engine gives up (a RuntimeError, such as an exhausted rejection loop).

All randomness flows through substreams keyed by the seed
and the work-unit identity, so reports are byte-identical for a given
seed no matter how many workers run the sweep.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .convexity import catalog_check
from .estimates import (
    MAX_PULL,
    NORM_RATIO_MAX,
    RADIAL_TOL,
    CounterexampleConfig,
    QuadratureSpec,
    ball_volume_check,
    radial_hessian_check,
    sweep_scaling,
    tight_pointwise_bound,
)
from .group import GroupDescriptor, heisenberg
from .pucci import PUCCI_TOL, Ellipticity, pucci_formula_check
from .report import SCHEMA_VERSION, write_json, write_rows_csv

__all__ = ["run", "main"]


def _parse_group(token: str) -> GroupDescriptor:
    kind, _, arg = token.partition(":")
    if kind.strip().lower() == "h":
        try:
            d = int(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad group {token!r}: the part after 'h:' must be an integer"
            )
        if d < 1:
            raise argparse.ArgumentTypeError(f"bad group {token!r}: need d >= 1")
        return heisenberg(d)
    raise argparse.ArgumentTypeError(
        f"unknown group {token!r}; supported: 'h:<d>' for the Heisenberg family"
    )


def _finite_float(token: str) -> float:
    """A float option's value; NaN and infinities are bad usage."""
    value = float(token)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {token!r}")
    return value


def _dyadic_exponent(token: str) -> int:
    """k of '2^k', limited to the exponents of finite, nonzero doubles."""
    k = int(token[2:])
    if not -1074 <= k <= 1023:
        raise ValueError(f"exponent of {token!r} is outside [-1074, 1023]")
    return k


def _parse_dyadic(token: str) -> float:
    token = token.strip()
    if token.startswith("2^"):
        return 2.0 ** _dyadic_exponent(token)
    return _finite_float(token)


def _parse_eps_spec(spec: str) -> tuple[float, ...]:
    """Either a dyadic range '2^-3..2^-8' or a comma-separated list."""
    try:
        if ".." in spec:
            lo_s, hi_s = (part.strip() for part in spec.split("..", 1))
            if not (lo_s.startswith("2^") and hi_s.startswith("2^")):
                raise ValueError("ranges must use dyadic endpoints, like 2^-3..2^-8")
            k0, k1 = _dyadic_exponent(lo_s), _dyadic_exponent(hi_s)
            step = 1 if k1 >= k0 else -1
            return tuple(2.0**k for k in range(k0, k1 + step, step))
        return tuple(_parse_dyadic(t) for t in spec.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad radius list {spec!r}: {err}")


def _parse_q_spec(spec: str) -> tuple[float, ...]:
    """Comma-separated exponents; fractions like 8/3 are kept exact."""
    out = []
    for token in spec.split(","):
        try:
            out.append(float(Fraction(token.strip())))
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise argparse.ArgumentTypeError(f"bad exponent {token.strip()!r}: {err}")
    return tuple(out)


def _parse_float_list(spec: str) -> tuple[float, ...]:
    return tuple(_finite_float(t) for t in spec.split(","))


def _int_at_least(token: str, low: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {token!r}")
    return value


def _positive_int(token: str) -> int:
    """A count of work items or threads; zero would leave what it sizes vacuous or unrun."""
    return _int_at_least(token, 1, "positive")


def _nonnegative_int(token: str) -> int:
    """A count where 0 switches its check off; a negative one is bad usage."""
    return _int_at_least(token, 0, "non-negative")


def _status(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


# Options that only choose where output goes or how fast it is produced;
# every other parsed option decides the results and is recorded.
_NOT_CONFIG = ("command", "func", "out", "csv", "workers")


def _finish(args: argparse.Namespace, results: object, passed: bool) -> int:
    """Write the shared report envelope, print the verdict, return the exit code."""
    if args.out:
        config = {
            key: f"h:{value.heisenberg_d}" if isinstance(value, GroupDescriptor) else value
            for key, value in vars(args).items()
            if key not in _NOT_CONFIG
        }
        write_json(
            {
                "schema_version": SCHEMA_VERSION,
                "version": __version__,
                "command": args.command,
                "config": config,
                "results": results,
                "passed": passed,
            },
            args.out,
        )
    print(f"overall: {_status(passed)}")
    return 0 if passed else 1


def _cmd_counterexample(args: argparse.Namespace) -> int:
    cfg = CounterexampleConfig(
        d=args.group.heisenberg_d,
        alpha=args.alpha,
        eps_list=args.eps,
        q_list=args.q,
    )
    quad = QuadratureSpec(n_samples=args.samples, seed=args.seed)
    report = sweep_scaling(
        cfg, quad, workers=args.workers, annihilation_samples=args.annihilation_samples
    )
    if args.csv:
        write_rows_csv(report.rows, args.csv)

    print(f"counterexample sweep: group=h:{cfg.d} alpha={cfg.alpha:.17g} cells={len(report.rows)}")
    for fit in report.fits:
        if fit["kind"] == "critical":
            detail = (
                f"source norm ratio {fit['f_norm_ratio']:.6g} (max {NORM_RATIO_MAX}),"
                f" outer Hessian mass affine in log(1/eps) with R^2={fit['r2']:.6g}"
            )
        else:
            detail = (
                f"fitted log-log slope {fit['fitted_slope']:.6g}"
                f" vs predicted {fit['predicted_slope']:.6g},"
                f" slope pull {fit['slope_pull']:.3g} (limit {MAX_PULL:g})"
            )
        print(
            f"  [{_status(fit['passed'])}] q={fit['q']:.17g} ({fit['kind']}): {detail},"
            f" worst source-mass pull {fit['worst_f_pull']:.3g} (limit {MAX_PULL:g})"
        )
    for ann in report.annihilation:
        print(
            f"  [{_status(ann.passed)}] annihilation eps={ann.eps:.17g}:"
            f" outer residual {ann.max_outer_residual:.3g},"
            f" inner residual {ann.max_inner_residual:.3g}"
        )
    return _finish(args, report, report.passed)


def _cmd_verify_radial(args: argparse.Namespace) -> int:
    rows = radial_hessian_check(args.group, args.alpha, args.points, args.seed)
    for row in rows:
        print(
            f"  [{_status(row.passed)}] {row.profile}: worst relative Hessian error"
            f" {row.max_rel_error:.3g} over {args.points} points (tol {RADIAL_TOL:.3g})"
        )
    return _finish(args, rows, all(row.passed for row in rows))


def _cmd_pucci(args: argparse.Namespace) -> int:
    e = Ellipticity(lam=args.lam, Lam=args.Lam)
    rep = pucci_formula_check(e, args.dim, args.count, args.samples, args.seed)
    print(
        f"extremal operator self-test: {args.count} matrices of size {args.dim},"
        f" {args.samples} admissible samples each"
    )
    print(
        f"  [{_status(rep.passed)}] worst scaled (oracle - formula) gap {rep.worst_gap:.3g}"
        f" (must stay below {PUCCI_TOL:.3g}); optimizer attained: {rep.attained}"
    )
    return _finish(args, rep, rep.passed)


def _cmd_convexity(args: argparse.Namespace) -> int:
    rows = catalog_check(args.group, args.c, args.lines, args.points, args.seed)
    for row in rows:
        print(
            f"  [{_status(row.agreed)}] {row.field} at c={row.c:.17g}:"
            f" expected {'pass' if row.expected else 'fail'},"
            f" lines {'pass' if row.lines.passed else 'fail'},"
            f" eigenvalues {'pass' if row.eigen.passed else 'fail'}"
        )
    return _finish(args, rows, all(row.agreed for row in rows))


def _cmd_pointwise_bound(args: argparse.Namespace) -> int:
    e = Ellipticity(lam=args.lam, Lam=args.Lam)
    rep = tight_pointwise_bound(args.group, e, args.count, args.seed)
    print(
        "pointwise trace bound, tight configuration"
        f" (lam={e.lam:.17g}, Lam={e.Lam:.17g}, m={args.group.m}):"
    )
    print(
        f"  [{_status(rep.passed)}] lower margin {rep.lower_margin:.3g},"
        f" upper margin {rep.upper_margin:.3g},"
        f" entry-bound margin {rep.surrogate_margin:.3g}"
        f" over {rep.n_points} points"
    )
    return _finish(args, rep, rep.passed)


def _cmd_ball_volume(args: argparse.Namespace) -> int:
    quad = QuadratureSpec(n_samples=args.samples, seed=args.seed)
    rows = ball_volume_check(args.group, args.r, quad)
    for row in rows:
        print(
            f"  [{_status(row.passed)}] r={row.r:.17g}: volume {row.volume:.17g}"
            f" (stderr {row.stderr:.3g}), exact {row.exact:.17g}, pull {row.pull:.3g}"
        )
    return _finish(args, rows, all(row.passed for row in rows))


# Built once per process: parsing leaves no state on the parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnotx",
        description="Verification workflows for horizontal calculus on Carnot groups.",
    )
    parser.add_argument("--version", action="version", version=f"carnotx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--group",
            type=_parse_group,
            default=_parse_group("h:1"),
            help="group token, e.g. h:1 for the first Heisenberg group",
        )
        p.add_argument("--seed", type=int, default=42, help="master RNG seed")
        p.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser(
        "counterexample",
        help="scaling sweep of the spliced gauge-power family",
    )
    add_common(p)
    p.add_argument(
        "--alpha", type=_finite_float, default=0.5, help="outer profile exponent in (0,1)"
    )
    p.add_argument(
        "--eps",
        type=_parse_eps_spec,
        default=_parse_eps_spec("2^-3..2^-8"),
        help="splice radii: dyadic range like 2^-3..2^-8 or a comma list",
    )
    p.add_argument(
        "--q",
        type=_parse_q_spec,
        default=_parse_q_spec("2,8/3,3"),
        help="integrability exponents, fractions allowed (e.g. 2,8/3,3)",
    )
    p.add_argument("--samples", type=int, default=200000, help="MC samples per cell")
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="thread count for sweep radii and annihilation checks",
    )
    p.add_argument(
        "--annihilation-samples",
        type=_nonnegative_int,
        default=20000,
        dest="annihilation_samples",
        help="samples per splice radius for the operator identity check (0 disables)",
    )
    p.add_argument("--csv", default=None, help="write per-cell rows as CSV here")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser(
        "verify-radial",
        help="finite differences against the closed-form radial Hessian",
    )
    add_common(p)
    p.add_argument("--alpha", type=_finite_float, default=0.5)
    p.add_argument("--points", type=_positive_int, default=200)
    p.set_defaults(func=_cmd_verify_radial)

    p = sub.add_parser(
        "pucci", help="extremal operator formula against a sampled supremum"
    )
    p.add_argument("--dim", type=_positive_int, default=4)
    p.add_argument(
        "--count", type=_positive_int, default=32, help="number of test matrices"
    )
    p.add_argument(
        "--samples", type=_positive_int, default=4096, help="admissible matrices per test"
    )
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--Lam", type=_finite_float, default=3.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pucci)

    p = sub.add_parser(
        "convexity", help="line and eigenvalue semiconvexity checkers on the catalog"
    )
    add_common(p)
    p.add_argument(
        "--c",
        type=_parse_float_list,
        default=(0.0, 0.5, 1.0, 2.0),
        help="non-negative semiconvexity constants to test, comma-separated",
    )
    p.add_argument("--lines", type=_positive_int, default=64)
    p.add_argument("--points", type=_positive_int, default=64)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser(
        "pointwise-bound", help="two-sided trace bound in its tight configuration"
    )
    add_common(p)
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--Lam", type=_finite_float, default=2.0)
    p.add_argument("--count", type=_positive_int, default=64)
    p.set_defaults(func=_cmd_pointwise_bound)

    p = sub.add_parser("ball-volume", help="Monte-Carlo gauge-ball volume")
    add_common(p)
    p.add_argument(
        "--r",
        type=_parse_float_list,
        default=(1.0,),
        help="distinct ball radii, comma-separated",
    )
    p.add_argument("--samples", type=int, default=1000000)
    p.set_defaults(func=_cmd_ball_volume)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        # An overflow raises FloatingPointError instead of warning and
        # carrying inf into the results.
        with np.errstate(over="raise"):
            return args.func(args)
    except (OverflowError, FloatingPointError) as err:
        print(f"error: a result is too large for a float: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: could not write output: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
