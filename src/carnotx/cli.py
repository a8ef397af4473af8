"""Command-line driver.

Subcommands cover the main verification workflows: the counterexample
scaling sweep, finite-difference validation of the radial calculus, the
extremal-operator self-test, the convexity catalog, the pointwise trace
bound, and gauge-ball volume estimation.  Exit status is 0 when every
check passes, 1 when a check is falsified (the report is still written),
and 2 on usage or I/O errors.

All randomness flows through counter-based substreams keyed by the seed
and the work-unit identity, so reports are byte-identical for a given
seed no matter how many workers run the sweep.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .calculus import (
    RadialProfile,
    field_from_profile,
    horizontal_hessian_sym,
    radial_hessian,
)
from .catalog import constant_field, convexity_catalog, horizontal_quadratic
from .convexity import check_semiconvex_eigen, check_semiconvex_lines
from .estimates import (
    CounterexampleConfig,
    IllPosedIntegrandError,
    QuadratureSpec,
    ball_volume,
    gauge_ball_sampler,
    pointwise_bound_check,
    power_profile,
    sweep_scaling,
    verify_pucci_annihilation,
)
from .group import GroupDescriptor, heisenberg
from .pucci import Ellipticity, pucci_minus, pucci_oracle_check
from .report import (
    SCHEMA_VERSION,
    sweep_report_dict,
    write_json,
    write_rows_csv,
)
from .rng import substream

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


def _parse_dyadic(token: str) -> float:
    token = token.strip()
    if token.startswith("2^"):
        return float(2.0 ** int(token[2:]))
    return float(token)


def _parse_eps_spec(spec: str) -> tuple[float, ...]:
    """Either a dyadic range '2^-3..2^-8' or a comma-separated list."""
    try:
        if ".." in spec:
            lo_s, hi_s = (part.strip() for part in spec.split("..", 1))
            if not (lo_s.startswith("2^") and hi_s.startswith("2^")):
                raise ValueError("ranges must use dyadic endpoints, like 2^-3..2^-8")
            k0, k1 = int(lo_s[2:]), int(hi_s[2:])
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
        except (ValueError, ZeroDivisionError) as err:
            raise argparse.ArgumentTypeError(f"bad exponent {token.strip()!r}: {err}")
    return tuple(out)


def _parse_float_list(spec: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in spec.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad list {spec!r}: {err}")


def _positive_int(token: str) -> int:
    """A count of work items; zero would make the check it sizes vacuous."""
    try:
        value = int(token)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {token!r}")
    return value


def _status(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _finish(
    args: argparse.Namespace, config: dict, results: object, passed: bool
) -> int:
    """Write the shared report envelope, print the verdict, return the exit code."""
    if args.out:
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
        glue_mode=args.glue,
    )
    quad = QuadratureSpec(n_samples=args.samples, seed=args.seed)
    report = sweep_scaling(
        cfg, quad, workers=args.workers, slope_tol=args.slope_tol
    )
    payload = sweep_report_dict(report)

    overall = report.passed
    if args.annihilation_samples > 0:
        section = []
        for eps in cfg.eps_list:
            ann = verify_pucci_annihilation(
                cfg, eps, args.annihilation_samples, args.seed
            )
            overall = overall and ann.passed
            section.append(
                {
                    "eps": ann.eps,
                    "passed": ann.passed,
                    "max_outer_residual": ann.max_outer_residual,
                    "max_inner_residual": ann.max_inner_residual,
                    "matrix_route_dev": ann.matrix_route_dev,
                    "fd_points": ann.fd_points,
                    "fd_max_excess": ann.fd_max_excess,
                }
            )
        payload["annihilation"] = section
    payload["passed"] = bool(overall)

    if args.out:
        write_json(payload, args.out)
    if args.csv:
        write_rows_csv(report.rows, args.csv)

    print(
        f"counterexample sweep: group=h:{cfg.d} alpha={cfg.alpha:.17g}"
        f" glue={cfg.glue_mode} cells={len(report.rows)}"
    )
    for verdict in report.verdicts:
        print(
            f"  [{_status(verdict['passed'])}] q={verdict['q']:.17g}"
            f" ({verdict['kind']}): {verdict['detail']}"
        )
    for entry in payload.get("annihilation", []):
        print(
            f"  [{_status(entry['passed'])}] annihilation eps={entry['eps']:.17g}:"
            f" outer residual {entry['max_outer_residual']:.3g},"
            f" inner residual {entry['max_inner_residual']:.3g}"
        )
    print(f"overall: {_status(overall)}")
    return 0 if overall else 1


def _quartic_profile() -> RadialProfile:
    return RadialProfile(
        name="quartic",
        psi=lambda r: np.asarray(r, dtype=float) ** 4,
        psi_prime=lambda r: 4.0 * np.asarray(r, dtype=float) ** 3,
        psi_second=lambda r: 12.0 * np.asarray(r, dtype=float) ** 2,
    )


def _cmd_verify_radial(args: argparse.Namespace) -> int:
    group = args.group
    sampler = gauge_ball_sampler(
        group, rho_max=0.9, rho_min=0.15, min_horizontal=0.05
    )
    pts = sampler(args.points, substream(args.seed, "verify-radial"))
    results = []
    overall = True
    for profile in (power_profile(args.alpha), _quartic_profile()):
        u = field_from_profile(group, profile)
        worst = 0.0
        for x in pts:
            approx = horizontal_hessian_sym(group, u, x)
            exact = radial_hessian(group, profile, x).matrix
            rel = float(
                np.linalg.norm(approx - exact)
                / max(float(np.linalg.norm(exact)), 1e-30)
            )
            worst = max(worst, rel)
        ok = worst <= args.tol
        overall = overall and ok
        results.append({"profile": profile.name, "max_rel_error": worst, "passed": ok})
        print(
            f"  [{_status(ok)}] {profile.name}: worst relative Hessian error"
            f" {worst:.3g} over {len(pts)} points (tol {args.tol:.3g})"
        )
    config = {
        "group": f"h:{group.heisenberg_d}",
        "alpha": args.alpha,
        "points": args.points,
        "seed": args.seed,
        "tol": args.tol,
    }
    return _finish(args, config, results, overall)


def _cmd_pucci(args: argparse.Namespace) -> int:
    e = Ellipticity(lam=args.lam, Lam=args.Lam)
    rng = substream(args.seed, "pucci-cli")
    worst_gap = -np.inf
    all_attained = True
    for i in range(args.count):
        raw = rng.standard_normal((args.dim, args.dim))
        mat = 0.5 * (raw + raw.T)
        oracle_sup, formula, attained = pucci_oracle_check(
            mat, e, n_samples=args.samples, seed=args.seed + i
        )
        scale = max(1.0, float(np.linalg.norm(mat)))
        worst_gap = max(worst_gap, (oracle_sup - formula) / scale)
        all_attained = all_attained and attained
    ok = all_attained and worst_gap <= args.tol
    print(
        f"extremal operator self-test: {args.count} matrices of size {args.dim},"
        f" {args.samples} admissible samples each"
    )
    print(
        f"  [{_status(ok)}] worst scaled (oracle - formula) gap {worst_gap:.3g}"
        f" (must stay below {args.tol:.3g}); optimizer attained: {all_attained}"
    )
    config = {
        "dim": args.dim,
        "count": args.count,
        "samples": args.samples,
        "lam": args.lam,
        "Lam": args.Lam,
        "seed": args.seed,
        "tol": args.tol,
    }
    return _finish(args, config, {"worst_gap": worst_gap, "attained": all_attained}, ok)


def _cmd_convexity(args: argparse.Namespace) -> int:
    group = args.group

    def sampler(count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=(count, group.n))

    rows = []
    overall = True
    for case in convexity_catalog(group):
        for c in args.c:
            expected = case.threshold <= c + 1e-12
            lines = check_semiconvex_lines(
                group, case.field, c, sampler, line_count=args.lines, seed=args.seed
            )
            eigen = check_semiconvex_eigen(
                group, case.field, c, sampler, point_count=args.points, seed=args.seed
            )
            ok = lines.passed == expected and eigen.passed == expected
            overall = overall and ok
            rows.append(
                {
                    "field": case.field.name,
                    "threshold": case.threshold,
                    "c": c,
                    "expected": expected,
                    "lines_passed": lines.passed,
                    "eigen_passed": eigen.passed,
                    "agreed": ok,
                }
            )
            print(
                f"  [{_status(ok)}] {case.field.name} at c={c:.17g}:"
                f" expected {'pass' if expected else 'fail'},"
                f" lines {'pass' if lines.passed else 'fail'},"
                f" eigenvalues {'pass' if eigen.passed else 'fail'}"
            )
    config = {
        "group": f"h:{group.heisenberg_d}",
        "c": list(args.c),
        "lines": args.lines,
        "points": args.points,
        "seed": args.seed,
    }
    return _finish(args, config, rows, overall)


def _cmd_pointwise_bound(args: argparse.Namespace) -> int:
    group = args.group
    e = Ellipticity(lam=args.lam, Lam=args.Lam)
    m = group.m
    u = horizontal_quadratic(group, -1.0)
    f = constant_field(-e.Lam * m, name="tight-rhs")

    def sampler(count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=(count, group.n))

    rep = pointwise_bound_check(
        group,
        lambda mat: pucci_minus(mat, e),
        u,
        f,
        c4=1.0,
        e=e,
        sampler=sampler,
        count=args.count,
        seed=args.seed,
        tol=args.tol,
    )
    print(
        "pointwise trace bound, tight configuration"
        f" (lam={e.lam:.17g}, Lam={e.Lam:.17g}, m={m}):"
    )
    print(
        f"  [{_status(rep.passed)}] lower margin {rep.lower_margin:.3g},"
        f" upper margin {rep.upper_margin:.3g},"
        f" entry-bound margin {rep.surrogate_margin:.3g}"
        f" over {rep.n_points} points"
    )
    config = {
        "group": f"h:{group.heisenberg_d}",
        "lam": args.lam,
        "Lam": args.Lam,
        "count": args.count,
        "seed": args.seed,
        "tol": args.tol,
    }
    results = {
        "lower_margin": rep.lower_margin,
        "upper_margin": rep.upper_margin,
        "surrogate_margin": rep.surrogate_margin,
        "semiconvex_ok": rep.semiconvex_ok,
        "supersolution_ok": rep.supersolution_ok,
    }
    return _finish(args, config, results, rep.passed)


def _cmd_ball_volume(args: argparse.Namespace) -> int:
    group = args.group
    quad = QuadratureSpec(n_samples=args.samples, seed=args.seed, method=args.method)
    results = []
    for r in args.r:
        est = ball_volume(group, r, quad)
        results.append({"r": r, "volume": est.value, "stderr": est.stderr})
        print(f"  r={r:.17g}: volume {est.value:.17g} (stderr {est.stderr:.3g})")
    if len(args.r) >= 2:
        big_q = group.homogeneous_dimension
        base = results[0]
        for entry in results[1:]:
            predicted = base["volume"] * (entry["r"] / base["r"]) ** big_q
            print(
                f"  scaling check r={entry['r']:.17g}: measured"
                f" {entry['volume']:.17g}, predicted from r={base['r']:.17g}"
                f" by r^{big_q}: {predicted:.17g}"
            )
    config = {
        "group": f"h:{group.heisenberg_d}",
        "r": list(args.r),
        "samples": args.samples,
        "seed": args.seed,
        "method": args.method,
    }
    return _finish(args, config, results, True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnotx",
        description="Verification workflows for horizontal calculus on Carnot groups.",
    )
    parser.add_argument("--version", action="version", version=f"carnotx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_group: str = "h:1") -> None:
        p.add_argument(
            "--group",
            type=_parse_group,
            default=_parse_group(default_group),
            help="group token, e.g. h:1 for the first Heisenberg group",
        )
        p.add_argument("--seed", type=int, default=42, help="master RNG seed")
        p.add_argument("--out", default=None, help="write a JSON report here")

    p = sub.add_parser(
        "counterexample",
        help="scaling sweep of the spliced gauge-power family",
    )
    add_common(p)
    p.add_argument("--alpha", type=float, default=0.5, help="outer profile exponent in (0,1)")
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
    p.add_argument("--workers", type=int, default=1, help="thread count for sweep cells")
    p.add_argument("--glue", choices=("paper-literal", "c1-variant"), default="paper-literal")
    p.add_argument("--slope-tol", type=float, default=0.05, dest="slope_tol")
    p.add_argument(
        "--annihilation-samples",
        type=int,
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
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--points", type=_positive_int, default=200)
    p.add_argument("--tol", type=float, default=1e-5)
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
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--Lam", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-10)
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
        help="semiconvexity constants to test, comma-separated",
    )
    p.add_argument("--lines", type=_positive_int, default=64)
    p.add_argument("--points", type=_positive_int, default=64)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser(
        "pointwise-bound", help="two-sided trace bound in its tight configuration"
    )
    add_common(p)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--Lam", type=float, default=2.0)
    p.add_argument("--count", type=_positive_int, default=64)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_pointwise_bound)

    p = sub.add_parser("ball-volume", help="Monte-Carlo gauge-ball volume")
    add_common(p)
    p.add_argument(
        "--r",
        type=_parse_float_list,
        default=(1.0,),
        help="ball radii, comma-separated",
    )
    p.add_argument("--samples", type=int, default=1000000)
    p.add_argument("--method", choices=("monte-carlo", "tensor-grid"), default="monte-carlo")
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
        return args.func(args)
    except (ValueError, IllPosedIntegrandError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: could not write output: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
