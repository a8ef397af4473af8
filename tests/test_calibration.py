"""Pulls over many seeds are standard normal: the standard errors are calibrated.

A pull gate (``|pull| <= MAX_PULL``) is only as sound as the standard error
it divides by.  Over 400 pinned seeds, the sweep's source-mass pulls, its
weighted-slope pull and ``ball-volume``'s pulls must have mean near 0,
standard deviation near 1 and a Kolmogorov-Smirnov p-value against N(0, 1)
that is not tiny.  scipy is the oracle for the KS test only.  A standard
error halved on purpose must fail.
"""

import numpy as np
import pytest
from scipy import stats

from carnotx import (
    CounterexampleConfig,
    McEstimate,
    QuadratureSpec,
    ball_volume,
    estimates,
    heisenberg,
    sweep_scaling,
)
from carnotx.estimates import _exact_ball_volume, _pull

SEEDS = range(400)
# On H^1 (Q = 4) with alpha = 1/2, q = 8/3 is the critical exponent.
CFG = CounterexampleConfig(
    d=1, alpha=0.5, eps_list=(2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6), q_list=(2.0, 8.0 / 3.0)
)


def source_pulls() -> np.ndarray:
    """Sweeps at 1,000 samples, one row per seed.

    The columns are `f_pull` at eps = 1/8 for each exponent, then the slope
    pull of the q = 2 power fit.
    """
    out = []
    for s in SEEDS:
        report = sweep_scaling(CFG, QuadratureSpec(1000, s))
        out.append([row.f_pull for row in report.rows[:2]] + [report.fits[0]["slope_pull"]])
    return np.array(out)


def volume_pulls(d: int) -> np.ndarray:
    """The pull of |B_1| on H^d at 2,000 samples, one per seed."""
    group = heisenberg(d)
    exact = _exact_ball_volume(group, 1.0)
    ests = [ball_volume(group, 1.0, QuadratureSpec(2000, s)) for s in SEEDS]
    return np.array([_pull(e.value, e.stderr, exact) for e in ests])


def calibrated(pulls: np.ndarray) -> tuple[bool, str]:
    mean, sd = float(np.mean(pulls)), float(np.std(pulls, ddof=1))
    p = float(stats.kstest(pulls, "norm").pvalue)
    ok = abs(mean) <= 0.25 and 0.8 <= sd <= 1.25 and p >= 1e-3
    return ok, f"mean {mean:+.3f}, sd {sd:.3f}, KS p {p:.3g}"


@pytest.fixture(scope="module")
def sweep_pulls():
    return source_pulls()


@pytest.mark.parametrize("j", [0, 1], ids=["q=2", "q=8/3"])
def test_source_mass_pulls_are_standard_normal(sweep_pulls, j):
    ok, summary = calibrated(sweep_pulls[:, j])
    assert ok, summary


def test_weighted_slope_pulls_are_standard_normal(sweep_pulls):
    ok, summary = calibrated(sweep_pulls[:, 2])
    assert ok, summary


@pytest.mark.parametrize("d", [1, 2])
def test_ball_volume_pulls_are_standard_normal(d):
    ok, summary = calibrated(volume_pulls(d))
    assert ok, summary


def test_a_halved_stderr_fails_the_sd_bound(monkeypatch):
    monkeypatch.setattr(
        estimates, "McEstimate", lambda value, stderr: McEstimate(value, 0.5 * stderr)
    )
    pulls = volume_pulls(1)
    ok, summary = calibrated(pulls)
    assert not ok and np.std(pulls, ddof=1) > 1.25, summary
