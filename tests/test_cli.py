"""CLI: argument parsing, exit codes, and report files."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import carnotx
import carnotx.calculus as calculus
import carnotx.estimates as estimates

from carnotx import Ellipticity, pucci_oracle_check
from carnotx.cli import _build_parser, _parse_eps_spec, _parse_q_spec, run
from carnotx.report import CSV_HEADER, SCHEMA_VERSION, dumps
from carnotx.rng import substream


class TestParsing:
    def test_dyadic_range(self):
        got = _parse_eps_spec("2^-3..2^-6")
        assert got == (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6)

    def test_comma_list_with_dyadics(self):
        assert _parse_eps_spec("0.125,2^-4") == (0.125, 0.0625)

    def test_fractional_exponents(self):
        got = _parse_q_spec("2,8/3")
        assert got[0] == 2.0
        assert got[1] == pytest.approx(8.0 / 3.0, rel=1e-16)

    def test_bad_tokens_exit_usage(self):
        assert run(["counterexample", "--eps", "banana"]) == 2
        assert run(["counterexample", "--q", "8//3"]) == 2
        assert run(["counterexample", "--group", "e8:1"]) == 2
        assert run(["no-such-command"]) == 2

    def test_version_exits_clean(self, capsys):
        assert run(["--version"]) == 0
        assert "carnotx" in capsys.readouterr().out


class TestCounterexampleCommand:
    def test_small_run_writes_reports(self, tmp_path):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "rows.csv"
        code = run(
            [
                "counterexample",
                "--eps", "2^-3..2^-6",
                "--q", "2,8/3",
                "--samples", "2000",
                "--annihilation-samples", "1200",
                "--out", str(out),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["passed"] is True
        config, results = payload["config"], payload["results"]
        assert set(config) >= {"group", "alpha", "eps", "q", "seed"}
        # The option decides the verdict, so it is recorded.
        assert config["annihilation_samples"] == 1200
        assert not {"workers", "out", "csv"} & set(config)
        # Each fit carries its own verdict; there is no parallel list of them.
        assert set(results) == {"lam", "Lam", "critical_q", "rows", "fits", "annihilation"}
        for fit in results["fits"]:
            assert fit["passed"] is True
            assert abs(fit["worst_f_pull"]) <= estimates.MAX_PULL
        assert len(results["rows"]) == 8
        assert len(results["annihilation"]) == 4
        for entry in results["annihilation"]:
            assert entry["witness"] is None
            assert entry["n_outer"] + entry["n_inner"] == 1200
            assert entry["n_excluded_axis"] >= 0 and entry["n_excluded_shell"] >= 0
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_HEADER)
        assert len(csv_path.read_text().splitlines()) == 9

    def test_rows_carry_the_lq_norm_rejected_fraction(self, monkeypatch, tmp_path):
        # A right-hand side unevaluable on a thin outer shell of B_eps, about
        # 4e-4 of the ball on H^1, so the rows have nonzero fractions to copy.
        real = estimates.counterexample_rhs_field

        def holed(cfg, eps):
            u = real(cfg, eps)
            return dataclasses.replace(
                u,
                of_gauge=lambda rho, h2, g: np.where(
                    rho > eps * (1.0 - 1e-4), np.nan, u.of_gauge(rho, h2, g)
                ),
            )

        monkeypatch.setattr(estimates, "counterexample_rhs_field", holed)
        out, csv_path = tmp_path / "report.json", tmp_path / "rows.csv"
        argv = [
            "counterexample", "--eps", "2^-3..2^-6", "--q", "2,8/3", "--samples", "20000",
            "--annihilation-samples", "0", "--seed", "5", "--out", str(out), "--csv", str(csv_path),
        ]
        run(argv)
        rows = json.loads(out.read_text())["results"]["rows"]
        lines = csv_path.read_text().splitlines()
        column = lines[0].split(",").index("rejected_fraction")
        cfg = estimates.CounterexampleConfig(
            d=1, alpha=0.5, eps_list=tuple(2.0**-k for k in range(3, 7)), q_list=(2.0, 8 / 3)
        )
        quad = estimates.QuadratureSpec(n_samples=20000, seed=5)
        fractions = []
        for row, line in zip(rows, lines[1:]):
            field = holed(cfg, row["eps"])
            want = estimates.lq_norm(field, cfg.group(), row["eps"], cfg.q_list, quad)[0]
            assert row["rejected_fraction"] == want.rejected_fraction
            assert float(line.split(",")[column]) == want.rejected_fraction
            fractions.append(want.rejected_fraction)
        assert len(fractions) == 8 and 0.0 < max(fractions) <= 1e-3

    def test_workers_do_not_change_bytes(self, tmp_path):
        blobs = []
        for w in ("1", "3"):
            out = tmp_path / f"r{w}.json"
            code = run(
                [
                    "counterexample",
                    "--eps", "2^-3..2^-6",
                    "--q", "2",
                    "--samples", "1500",
                    "--annihilation-samples", "0",
                    "--workers", w,
                    "--out", str(out),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_a_slope_within_its_error_bars_passes_at_few_samples(self, capsys):
        # The slope is 2.47 of its standard errors from 1 but 0.056 away, so
        # the fixed window of 0.05 around the slope failed this run.
        argv = [
            "counterexample", "--eps", "2^-3..2^-6", "--q", "2", "--samples", "1000",
            "--annihilation-samples", "0", "--seed", "23",
        ]
        assert run(argv) == 0
        out = capsys.readouterr().out
        slope = float(re.search(r"fitted log-log slope (\S+)", out).group(1))
        pull = float(re.search(r"slope pull (\S+)", out).group(1))
        assert abs(slope - 1.0) > 0.05 and abs(pull) <= estimates.MAX_PULL

    def test_bad_alpha_is_usage_error(self):
        assert run(["counterexample", "--alpha", "1.5"]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = run(
            [
                "counterexample",
                "--eps", "2^-3..2^-6",
                "--q", "2",
                "--samples", "1500",
                "--annihilation-samples", "0",
                "--out", str(tmp_path / "missing-dir" / "x.json"),
            ]
        )
        assert code == 2


class TestOtherCommands:
    def test_verify_radial(self):
        assert run(["verify-radial", "--points", "20"]) == 0

    def test_pucci(self):
        assert run(["pucci", "--count", "4", "--samples", "512"]) == 0

    @pytest.mark.parametrize("seed", [1, 42])
    def test_pucci_report_matches_per_matrix_loop(self, seed, tmp_path):
        # The reference is the per-matrix loop: one (dim, dim) draw, oracle
        # call at the same seed and Lam np.linalg.norm scale per matrix.
        e = Ellipticity(lam=1.0, Lam=3.0)
        rng = substream(seed, "pucci-cli")
        gaps, sups, formulas, attained = [], [], [], True
        for i in range(7):
            raw = rng.standard_normal((4, 4))
            mat = 0.5 * (raw + raw.T)
            sup, formula, ok = pucci_oracle_check(mat, e, n_samples=300, seed=seed)
            gaps.append((sup - formula) / max(1.0, e.Lam * float(np.linalg.norm(mat))))
            sups.append(float(sup))
            formulas.append(float(formula))
            attained = attained and bool(ok)
        worst = float(max(gaps))
        i = gaps.index(worst)
        want = {
            "schema_version": SCHEMA_VERSION,
            "version": carnotx.__version__,
            "command": "pucci",
            "config": {
                "dim": 4, "count": 7, "samples": 300, "lam": 1.0, "Lam": 3.0,
                "seed": seed,
            },
            "results": {
                "worst_gap": worst,
                "worst_index": i,
                "oracle_sup": sups[i],
                "formula": formulas[i],
                "attained": attained,
            },
            "passed": attained and worst <= 1e-10,
        }
        out = tmp_path / "pucci.json"
        argv = ["pucci", "--dim", "4", "--count", "7", "--samples", "300"]
        run(argv + ["--seed", str(seed), "--out", str(out)])
        assert out.read_text() == dumps(want)

    def test_pucci_is_one_stacked_call(self, monkeypatch):
        import carnotx.pucci as pucci

        calls = []

        def counted(name, fn):
            return lambda *a, **k: calls.append(name) or fn(*a, **k)

        # The oracle's one eigh call gives both the formula and A*.
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(pucci, "pucci_oracle_check", counted("oracle", pucci.pucci_oracle_check))
        assert run(["pucci", "--count", "5", "--samples", "16"]) == 0
        assert sorted(calls) == ["eigh", "oracle"]

    def test_pucci_draws_one_sample_set(self, monkeypatch):
        import carnotx.pucci as pucci

        keys, normals = [], []

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, size):
                normals.append(size)
                return self.rng.standard_normal(size)

            def uniform(self, low, high, size):
                return self.rng.uniform(low, high, size)

        real = pucci.substream
        monkeypatch.setattr(
            pucci, "substream", lambda *key: keys.append(key[1:]) or Counted(real(*key))
        )
        assert run(["pucci", "--count", "64", "--samples", "1024"]) == 0
        # The test matrices are one draw, the oracle's samples one more.
        assert keys == [("pucci-cli",), ("pucci-oracle",)]
        assert normals == [(64, 4, 4), (1024, 4, 4)]

    @pytest.mark.parametrize("Lam", ["1e6", "1e12"])
    def test_pucci_attains_the_formula_at_large_Lam(self, Lam, tmp_path):
        # Tr(A* M) is of order Lam ||M||, and so is its rounding error.
        out = tmp_path / "pucci.json"
        assert run(["pucci", "--lam", "1", "--Lam", Lam, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["attained"] is True

    @pytest.mark.parametrize("count", [64, 512])
    def test_pucci_memory_stays_flat(self, count):
        # The oracle holds one chunk of samples with its (6, 6, 1024) slab of
        # formed A, one (8, 1024) block of traces and an (N,) array of running
        # maxima, never count x samples values; 512 x 1024 doubles are 4 MB.
        # The warm-up run pays for lazy imports before the tracing starts.
        assert run(["pucci", "--count", "1", "--samples", "1"]) == 0
        argv = ["pucci", "--dim", "6", "--count", str(count), "--samples", "1024"]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_pucci_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # The oracle's contractions run numpy's own loops, not BLAS, whose
        # kernels may split a sum differently on more threads.  This cannot see
        # a GEMM at the contraction's shape: OpenBLAS splits a GEMM over rows
        # and columns, not over the summed axis, so its bytes would match too.
        # test_stack_matches_single_calls (tests/test_pucci.py) guards that case.
        src = str(Path(carnotx.__file__).resolve().parents[1])
        argv = ["pucci", "--dim", "6", "--count", "64", "--samples", "1024", "--seed", "42"]
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"pucci-{threads}.json"
            call = argv + ["--out", str(out)]
            code = f"from carnotx.cli import run; raise SystemExit(run({call!r}))"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_convexity(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run(
            ["convexity", "--lines", "24", "--points", "24", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert len(payload["results"]) == 6 * 4
        for row in payload["results"]:
            assert row["lines"]["passed"] == row["eigen"]["passed"] == row["expected"]
            assert set(row["lines"]["witness"]) == {"start", "direction", "s"}
            assert set(row["eigen"]["witness"]) == {"point", "min_eigenvalue"}
            assert row["lines"]["worst_slack"] is not None

    def test_convexity_draws_once_per_field(self, monkeypatch):
        # Neither checker's draw depends on the constant, so each of the 6
        # catalog fields opens one substream per checker for all 4 constants.
        import carnotx.convexity as convexity

        paths = []
        real = convexity.substream
        monkeypatch.setattr(
            convexity, "substream", lambda seed, *path: paths.append(path) or real(seed, *path)
        )
        assert run(["convexity"]) == 0
        assert sorted(paths) == [("semiconvex-eigen",)] * 6 + [("semiconvex-lines",)] * 6

    def test_pointwise_bound(self, tmp_path):
        out = tmp_path / "bound.json"
        assert run(["pointwise-bound", "--count", "16", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["n_points"] == 16
        assert len(results["witness"]["point"]) == 3
        assert results["witness"]["trace"] == pytest.approx(-2.0)

    @pytest.mark.parametrize("lam, Lam", [("1", "1e17"), ("1e-300", "1e300")])
    def test_pointwise_bound_keeps_lam_beside_a_large_Lam(self, lam, Lam, tmp_path, capsys):
        # The tight configuration's exact upper margin is 0; with Lam - lam
        # formed first, lam was lost and the margin read 2.
        out = tmp_path / "bound.json"
        argv = ["pointwise-bound", "--lam", lam, "--Lam", Lam, "--count", "50", "--seed", "3"]
        assert run(argv + ["--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert abs(results["upper_margin"]) <= 1e-12 and results["lower_margin"] == 0.0
        assert "upper margin 0," in capsys.readouterr().out

    def test_ball_volume(self, capsys):
        assert run(["ball-volume", "--r", "0.5,1", "--samples", "50000"]) == 0
        out = capsys.readouterr().out
        assert "exact 0.308425137534" in out  # pi^2/2 * 0.5^4
        assert "scaling check" not in out

    def test_ball_volume_report_matches_library(self, tmp_path):
        from carnotx import QuadratureSpec, heisenberg
        from carnotx.estimates import ball_volume_check

        out = tmp_path / "ball.json"
        argv = ["ball-volume", "--group", "h:2", "--r", "0.5,2", "--samples", "20000"]
        assert run(argv + ["--seed", "3", "--out", str(out)]) == 0
        G, quad = heisenberg(2), QuadratureSpec(n_samples=20000, seed=3)
        want = ball_volume_check(G, (0.5, 2.0), quad)
        assert [row.passed for row in want] == [True, True]
        assert out.read_text() == dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "version": carnotx.__version__,
                "command": "ball-volume",
                "config": {"group": "h:2", "seed": 3, "r": [0.5, 2.0], "samples": 20000},
                "results": want,
                "passed": True,
            }
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pucci", "--count", "0"], "positive integer"),
        (["pucci", "--dim", "0"], "positive integer"),
        (["pucci", "--samples", "0"], "positive integer"),
        (["pointwise-bound", "--count", "0"], "positive integer"),
        (["verify-radial", "--points", "0"], "positive integer"),
        (["convexity", "--lines", "0"], "positive integer"),
        (["convexity", "--points", "-3"], "positive integer"),
        (["ball-volume", "--r", "inf", "--samples", "2000"], "finite"),
        (
            [
                "counterexample", "--eps", "2^-3..2^-6", "--q", "2",
                "--samples", "1000", "--annihilation-samples", "1",
            ],
            "at least 2 samples",
        ),
        (["counterexample", "--annihilation-samples", "-5"], "non-negative integer"),
        (["counterexample", "--eps", "2^-3,2^-3,2^-3,2^-5", "--q", "2"], "distinct"),
        (["counterexample", "--eps", "2^-3..2^-6", "--q", "2,2"], "distinct"),
        # dyadic exponents outside the finite, nonzero doubles; a range is
        # checked at its endpoints, before any radius is built
        (["counterexample", "--eps", "2^5000,2^-4,2^-5,2^-6"], "outside [-1074, 1023]"),
        (["counterexample", "--eps", "2^-3..2^1100"], "outside [-1074, 1023]"),
        (["counterexample", "--eps", "2^-3..2^-100000000"], "outside [-1074, 1023]"),
        (
            ["counterexample", "--eps", "2^-600,2^-601,2^-602,2^-603", "--q", "2"],
            "box volume",
        ),
        (
            [
                "counterexample", "--eps", "2^-250,2^-251,2^-252,2^-253", "--q", "3",
                "--samples", "1000", "--annihilation-samples", "0",
            ],
            "too large for a float",
        ),
        # an overflow inside the engine, not a RuntimeWarning and a traceback
        (["pucci", "--lam", "1e300", "--Lam", "1.7e308"], "too large for a float"),
        # Monte-Carlo boxes whose volume overflows or underflows
        (["ball-volume", "--r", "1e200", "--samples", "2000"], "box volume"),
        (["ball-volume", "--r", "1e-200", "--samples", "2000"], "box volume"),
        # annihilation radii inside the splice exclusion or without a
        # finite-difference window; both fail before the sweep runs
        (
            [
                "counterexample", "--eps", "2^-21..2^-24", "--q", "2", "--samples", "1000",
                "--annihilation-samples", "2",
            ],
            "excludes the shell |rho - eps| < 1e-06",
        ),
        (
            [
                "counterexample", "--eps", "0.2,0.3,0.5,0.9", "--q", "2", "--samples", "1000",
                "--annihilation-samples", "200",
            ],
            "finite-difference window 0.93 < rho < 0.9",
        ),
        # the catalog's thresholds classify no negative semiconvexity constant
        (["convexity", "--c", "-1"], "semiconvexity constants must be >= 0"),
        # the thread count is checked at parse time, before any work runs
        (["counterexample", "--workers", "0"], "positive integer"),
        # a relative error needs an exact Hessian of normal norm: rho^1e-300
        # rounds to 1 and its Hessian's norm to 0; and the stencil resolves
        # only the exponents in [-50, 8], so 1e300, where (1 - 1e300) * 0 is
        # NaN, and 400, where rho^398 underflows, are refused before it runs
        (["verify-radial", "--alpha", "1e-300"], "power[1e-300]: an exact Hessian has zero"),
        (["verify-radial", "--alpha", "1e300"], "alpha 1e+300 is outside"),
        (["verify-radial", "--alpha", "400"], "alpha 400.0 is outside"),
        # a seed outside the 64-bit key would alias one inside it
        (["ball-volume", "--samples", "2000", "--seed", "-1"], "seed must lie in [0, 2^64)"),
        # a repeated constant would only print its rows twice
        (["convexity", "--c", "1,0.5,1"], "semiconvexity constant 1.0 is repeated"),
        # psi = 1 - rho^0 vanishes, so both routes would agree on zero Hessians
        (["verify-radial", "--alpha", "0"], "power[0.0]: an exact Hessian has zero"),
        # a repeated radius would draw the same substream and print its row twice
        (["ball-volume", "--r", "1,1", "--samples", "2000"], "ball radius 1.0 is repeated"),
        # verdict tolerances are module constants, not options
        (["verify-radial", "--tol", "1"], "unrecognized arguments: --tol 1"),
        # one splice, so no option chooses it
        (["counterexample", "--glue", "c1-variant"], "unrecognized arguments"),
        # an alpha so small that a fit's inputs underflow: a source mass of 0,
        # a standard error that squares to 0, or outer masses whose spread
        # squares to 0
        *(
            (
                [
                    "counterexample", "--alpha", alpha, "--q", q, "--eps", "2^-3..2^-6",
                    "--samples", "1000", "--annihilation-samples", "0",
                ],
                message,
            )
            for alpha, q, message in [
                ("1e-200", "2", "a source mass at q=2 underflows to 0"),
                ("1e-120", "8/3", "standard error squares to 0"),
                ("1e-100", "2", "so the fit has no R^2"),
            ]
        ),
        # an exponent past the largest double
        (["counterexample", "--q", "1e400"], "bad exponent '1e400'"),
        (["counterexample", "--q", "2,1e309"], "bad exponent '1e309'"),
        # the stencil annulus keeps about 1.5e-4 of the box draws on H^6,
        # too few for 200 points within the rejection budget
        (
            ["verify-radial", "--group", "h:6"],
            "group h:6: the stencil annulus 0.15 <= rho < 0.9 is too thin to sample"
            " (rejection sampling kept 152 of 200 rows in 10000 rounds)",
        ),
        # a subnormal box volume (8e-324 on H^1), whose exact ball volume rounds to 0
        (["ball-volume", "--r", "1e-81", "--samples", "2000"], "box volume"),
        # at 20 the stencil's own truncation outgrows the tolerance on H^1
        *(
            (
                ["verify-radial", "--group", group, "--alpha", "20"],
                "alpha 20.0 is outside the stencil's range [-50, 8]",
            )
            for group in ("h:1", "h:3")
        ),
    ],
)
def test_degenerate_work_is_usage_error(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.count("error:") == 1
    assert "overall:" not in captured.out


@pytest.mark.parametrize(
    "n, seed", [(2, 1), (2, 2), (2, 3), (2, 7), (2, 42), (3, 42), (4, 7), (4, 42)]
)
def test_few_annihilation_samples_pass_at_every_seed(n, seed, tmp_path):
    # The stencil points have their own sampler, so a small residual sample
    # neither misses them nor leaves a region empty.
    out = tmp_path / "report.json"
    argv = [
        "counterexample", "--samples", "1000", "--annihilation-samples", str(n),
        "--seed", str(seed), "--out", str(out),
    ]
    assert run(argv) == 0
    for entry in json.loads(out.read_text())["results"]["annihilation"]:
        assert (entry["n_outer"], entry["n_inner"]) == (n // 2, n - n // 2)
        assert entry["fd_max_excess"] <= 1.0


def test_tiny_exact_hessians_are_no_vacuous_pass(monkeypatch, tmp_path):
    # A planted profile whose stencil sees psi = 0 while its exact Hessians,
    # those of rho^1e-40, have norms near 1e-39: normal floats, so the error
    # is measured against them and reads 1 (the norm of exact / ||exact||,
    # to rounding), not 1e-39 over a floor.
    real = estimates.power_profile
    monkeypatch.setattr(
        estimates,
        "power_profile",
        lambda alpha: dataclasses.replace(real(alpha), psi=lambda r: np.zeros(np.shape(r))),
    )
    out = tmp_path / "verify-radial.json"
    assert run(["verify-radial", "--alpha", "1e-40", "--points", "20", "--out", str(out)]) == 1
    power = json.loads(out.read_text())["results"][0]
    assert (power["profile"], power["passed"]) == ("power[1e-40]", False)
    assert power["max_rel_error"] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("alpha", ["1e-160", "1e-155"])
def test_differences_that_square_to_zero_are_no_vacuous_pass(alpha, tmp_path):
    # The exact Hessians of 1 - rho^alpha have normal norms near alpha here,
    # but the stencil's differences from them have entries far below 1e-154,
    # whose squares are 0: the error is scaled by the norm before squaring,
    # so it reads the stencil's error, not 0, or the run is refused.
    out = tmp_path / "verify-radial.json"
    code = run(["verify-radial", "--group", "h:1", "--alpha", alpha, "--out", str(out)])
    if code != 2:
        power = json.loads(out.read_text())["results"][0]
        assert power["profile"] == f"power[{alpha}]"
        assert power["max_rel_error"] > 0.0


@pytest.mark.parametrize("group", ["h:1", "h:2", "h:3", "h:4", "h:5"])
def test_verify_radial_passes_at_its_defaults(group):
    assert run(["verify-radial", "--group", group]) == 0


@pytest.mark.parametrize("group", ["h:1", "h:3"])
@pytest.mark.parametrize("alpha", ["1e-40", "1e-12", "1e-6", "1e-3"])
def test_small_alpha_stencil_passes(group, alpha, tmp_path):
    # psi = -expm1(alpha log rho) keeps the digits that 1 - rho^alpha loses
    # to cancellation, about log10(1/alpha) of them, so the stencil agrees.
    out = tmp_path / "verify-radial.json"
    assert run(["verify-radial", "--group", group, "--alpha", alpha, "--out", str(out)]) == 0
    power = json.loads(out.read_text())["results"][0]
    assert power["max_rel_error"] <= 1e-7


@pytest.mark.parametrize("group", ["h:1", "h:2", "h:3"])
@pytest.mark.parametrize("alpha", ["-50", "8"])
def test_verify_radial_passes_at_both_ends_of_its_range(group, alpha):
    for seed in range(1, 6):
        argv = ["verify-radial", "--group", group, "--alpha", alpha, "--points", "300"]
        assert run(argv + ["--seed", str(seed)]) == 0, seed


def test_small_alpha_counterexample_passes(tmp_path):
    # At alpha = 1e-9 the cancellation in 1 - rho^alpha failed every radius's
    # finite-difference check.
    out = tmp_path / "counterexample.json"
    argv = [
        "counterexample", "--alpha", "1e-9", "--samples", "2000",
        "--annihilation-samples", "200", "--out", str(out),
    ]
    assert run(argv) == 0
    for entry in json.loads(out.read_text())["results"]["annihilation"]:
        assert entry["fd_max_excess"] <= 1.0


def test_engine_runtime_error_exits_2(monkeypatch, capsys):
    # An axis exclusion wider than the unit ball leaves no annihilation
    # sample to keep, so the rejection loop gives up with RuntimeError.
    monkeypatch.setattr(calculus, "_MAX_ROUNDS", 3)
    monkeypatch.setattr(estimates, "AXIS_EXCLUSION", 2.0)
    argv = [
        "counterexample", "--eps", "2^-3..2^-6", "--q", "2", "--samples", "1000",
        "--annihilation-samples", "2",
    ]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: rejection sampling kept 0 of 1 rows in 3 rounds\n"
    assert "overall:" not in captured.out


def test_thin_stencil_annulus_names_itself(monkeypatch, capsys):
    # max(0.15, eps + 0.03) = 0.89999999 leaves a stencil window that the
    # sampler's whole budget is expected to hit 0.0175 times on H^1, so the
    # up-front radius rule rejects it, by name, before any unit of the pool
    # starts: no box pass runs at any worker count.
    real, passes = estimates._sweep_radius, []

    def counting(*args):
        passes.append(args[-1])
        return real(*args)

    monkeypatch.setattr(estimates, "_sweep_radius", counting)
    for workers in ("1", "2"):
        argv = [
            "counterexample", "--eps", "0.2,0.3,0.5,0.86999999", "--q", "2", "--samples", "1000",
            "--annihilation-samples", "2", "--workers", workers,
        ]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: splice radius 0.86999999: the stencil window 0.89999999 <= rho < 0.9 is too"
            " thin to sample: 640000 box draws are expected to keep 0.0175 rows there, and the"
            " check asks for 1200\n"
        )
        assert "overall:" not in captured.out
        assert passes == []


def test_annihilation_radius_rules_fail_before_the_sweep(monkeypatch):
    # The sweep applies the check's radius rules itself, to every radius,
    # before it builds a unit: neither a box pass nor a check starts.
    def unit(*args, **kwargs):
        pytest.fail("a unit ran")

    monkeypatch.setattr(estimates, "_sweep_radius", unit)
    monkeypatch.setattr(estimates, "verify_pucci_annihilation", unit)
    cfg = estimates.CounterexampleConfig(
        d=1, alpha=0.5, eps_list=tuple(2.0**-k for k in range(21, 25)), q_list=(2.0,)
    )
    quad = estimates.QuadratureSpec(n_samples=1000, seed=42)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"eps > 2e-06"):
            estimates.sweep_scaling(cfg, quad, workers=workers, annihilation_samples=2)


@pytest.mark.parametrize("workers", ["1", "2", "16"])
def test_first_failing_unit_in_order_raises(workers, monkeypatch, capsys):
    # Radius units 1 and 3 fail, and unit 1 waits until unit 3 has raised
    # whenever they can run at once: the error is still unit 1's.
    third_failed = threading.Event()

    def planted(cfg, quad, eps):
        i = cfg.eps_list.index(eps)
        if i == 1:
            if int(workers) > 1:
                assert third_failed.wait(timeout=10.0)
            raise ValueError("radius unit 1 failed")
        if i == 3:
            third_failed.set()
            raise ValueError("radius unit 3 failed")
        return []

    monkeypatch.setattr(estimates, "_sweep_radius", planted)
    argv = [
        "counterexample", "--eps", "2^-3..2^-6", "--q", "2", "--samples", "1000",
        "--annihilation-samples", "0", "--workers", workers,
    ]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: radius unit 1 failed\n"
    assert "overall:" not in captured.out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_annihilation_checks_run_in_the_sweep_pool(workers, monkeypatch):
    # Every check is a unit of the sweep's thread pool, also at one worker.
    real = estimates.verify_pucci_annihilation
    on_main = []

    def recording(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(estimates, "verify_pucci_annihilation", recording)
    argv = [
        "counterexample", "--eps", "2^-3..2^-6", "--q", "2", "--samples", "1000",
        "--annihilation-samples", "2", "--workers", workers,
    ]
    assert run(argv) == 0
    assert on_main == [False] * 4


@pytest.mark.parametrize("workers", ["1", "2"])
def test_pool_units_keep_the_overflow_guard(workers, monkeypatch, capsys):
    # numpy's error state is a context variable that new threads do not
    # inherit, so a unit must run in the caller's context to raise on overflow.
    def overflowing(cfg, quad, eps):
        return [np.exp(np.float64(1000.0))]

    monkeypatch.setattr(estimates, "_sweep_radius", overflowing)
    argv = [
        "counterexample", "--eps", "2^-3..2^-6", "--q", "2", "--samples", "1000",
        "--annihilation-samples", "0", "--workers", workers,
    ]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "too large for a float" in captured.err
    assert "overall:" not in captured.out


ENVELOPE_CASES = [
    ["verify-radial", "--points", "4"],
    ["pucci", "--count", "2", "--samples", "256"],
    ["convexity", "--lines", "8", "--points", "8", "--c", "2"],
    ["pointwise-bound", "--count", "4"],
    ["ball-volume", "--r", "0.5,1", "--samples", "2000"],
    [
        "counterexample", "--eps", "2^-3..2^-6", "--q", "2", "--samples", "1500",
        "--annihilation-samples", "0",
    ],
]


def test_envelope_cases_name_every_subcommand():
    # A later subcommand must join the envelope test, so it cannot fork the shape.
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert sorted(argv[0] for argv in ENVELOPE_CASES) == sorted(sub.choices)


@pytest.mark.parametrize("argv", ENVELOPE_CASES)
def test_report_envelope(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == [
        "schema_version", "version", "command", "config", "results", "passed"
    ]
    assert payload["command"] == argv[0]
    assert payload["passed"] is True
    assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"


def test_repeated_runs_write_the_same_reports(tmp_path):
    # The parser is built once per process, so no run may leave state on it.
    def reports(tag):
        got = []
        for i, argv in enumerate(ENVELOPE_CASES):
            out = tmp_path / f"{tag}-{i}.json"
            assert run(argv + ["--out", str(out)]) == 0
            got.append(out.read_bytes())
        return got

    assert reports("first") == reports("second")


def test_non_finite_numbers_are_usage_errors(capsys):
    # Walks every option that converts its value, so a later option cannot
    # skip the check: float options reject NaN and infinities at parse time,
    # and integer and group options reject them too.
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    typed = [
        (name, action.option_strings[-1])
        for name, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and action.type is not None
    ]
    assert len(typed) > 20
    for command, option in typed:
        for value in ("nan", "inf"):
            assert run([command, option, value]) == 2, (command, option, value)
    assert "overall:" not in capsys.readouterr().out


def test_cli_imports_only_numpy_at_runtime():
    # scipy and mpmath are test oracles; importing the CLI must not pull them in.
    code = (
        "import sys, carnotx.cli; "
        "print(sorted({'scipy', 'mpmath'} & {m.split('.')[0] for m in sys.modules}))"
    )
    src = str(Path(carnotx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
