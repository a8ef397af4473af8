"""Exact-count self-check of the tracer.

The expected counts follow from the code of each command, so a mismatch
means some binding of a public function went unwrapped.  Run from the root
of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench/check_tracer.py

(The file name keeps it out of the package's own test collection.)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import carnotx.cli as cli
import pytest
from carnotx.calculus import ScalarField

from tracer import LAYERS, Tracer, job_totals, layer_metrics


def traced(argv: list[str]) -> list[tuple]:
    with Tracer() as tracer:
        tracer.job = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) == 0
    return tracer.spans


def calls(spans: list[tuple]) -> dict:
    return job_totals(spans)[0]["calls"]


@pytest.mark.parametrize("n", [1, 37])
def test_pointwise_bound_counts(n):
    got = calls(traced(["pointwise-bound", "--count", str(n)]))
    assert got["pucci.sym_eigenvalues"] == 2 * n + 1
    assert got["calculus.horizontal_hessian_sym"] == n


@pytest.mark.parametrize("p", [3, 20])
def test_verify_radial_counts(p):
    got = calls(traced(["verify-radial", "--group", "h:2", "--points", str(p)]))
    assert got["calculus.horizontal_hessian_sym"] == 2 * p


@pytest.mark.parametrize("eps, k", [("2^-3..2^-6", 4), ("2^-3..2^-8", 6)])
def test_sweep_counts_and_thread_parents(eps, k):
    spans = traced(["counterexample", "--samples", "4000", "--q", "2", "--eps", eps, "--workers", "2"])
    got = calls(spans)
    assert got["pucci.pucci_plus"] == 32 * k
    assert got["calculus.horizontal_hessian_sym"] == 12 * k
    # Only the job's root has no parent, spans on pool threads included.
    roots = [span for span in spans if span[1] is None]
    assert [span[3] for span in roots] == ["cli.run"]


def test_uninstall_restores_every_binding():
    modules = [m for name, m in sys.modules.items() if name == "carnotx" or name.startswith("carnotx.")]
    before = [dict(vars(m)) for m in modules]
    field_init = ScalarField.__init__
    with Tracer():
        assert cli.run is not before[modules.index(cli)]["run"]
        assert ScalarField.__init__ is not field_init
    assert [dict(vars(m)) for m in modules] == before
    assert ScalarField.__init__ is field_init


def test_self_time_is_duration_minus_children():
    # parent 0..10 with children 1..3 and 2..5 (overlapping) and 8..12 (clipped)
    spans = [
        (0, None, 0, "cli.run", 0.0, 10.0, None),
        (1, 0, 0, "pucci.sym_eigenvalues", 1.0, 3.0, None),
        (2, 0, 0, "pucci.sym_eigenvalues", 2.0, 5.0, None),
        (3, 0, 0, "rng.substream", 8.0, 12.0, None),
    ]
    tot = job_totals(spans)[0]
    assert tot["self"]["cli"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert tot["self"]["pucci"] == pytest.approx(5.0)
    assert tot["calls"]["pucci.sym_eigenvalues"] == 2


def test_benchmark_file_lists_every_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: m["unit"] for name, m in layer_metrics([], [0], 0).items()}
    produced.update({"trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    assert declared == produced
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(declared)
