"""Mutation check of the negative controls: each verdict condition replaced by True must be caught.

Each row of MUTANTS names one of the (command, condition) pairs of `test_controls.CONDITIONS`
and the text in src/carnotx that replaces that condition by True.  For each row the script
copies the checkout (without .git) to a temporary directory, applies the mutant there and runs
pytest on tests/test_controls.py in a subprocess.  A mutant survives when that run passes.  The
unmutated copy runs first and must pass, or every mutant would read as killed.  The script
prints each mutant's fate and exits 1 when a mutant survives that its row does not expect to.
Run from anywhere:

    python tests/check_mutants.py [pytest arguments]

Arguments, when given, replace tests/test_controls.py as what pytest runs in the copy, for
example `tests --ignore=tests/test_acceptance.py`.  The name keeps the file out of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (command, condition, file under src/carnotx, old text, new text, expected to survive)
MUTANTS = [
    ("counterexample", "power slope pull", "estimates.py",
     "passed = abs(slope_pull) <= MAX_PULL", "passed = True", False),
    ("counterexample", "fit worst source pull", "estimates.py",
     'passed and abs(fit["worst_f_pull"]) <= MAX_PULL', "passed and True", False),
    ("counterexample", "critical norm ratio", "estimates.py",
     "passed = ratio <= NORM_RATIO_MAX and", "passed = True and", False),
    # The critical R^2 is fitted to a closed form and is exactly 1 (ROADMAP item 1).
    ("counterexample", "critical R^2", "estimates.py",
     "and r2 >= R2_MIN", "and True", True),
    ("counterexample", "outer residual", "estimates.py",
     "passed = (\n        outer_res <= tol", "passed = (\n        True", False),
    ("counterexample", "inner residual", "estimates.py",
     "and inner_res <= tol", "and True", False),
    ("counterexample", "matrix route", "estimates.py",
     "and matrix_dev <= tol", "and True", False),
    ("counterexample", "stencil excess", "estimates.py",
     "and fd_excess <= 1.0", "and True", False),
    ("verify-radial", "error bound", "estimates.py",
     "bool(err[i] <= RADIAL_TOL)", "True", False),
    ("pucci", "gap", "pucci.py",
     "self.attained and self.worst_gap <= PUCCI_TOL", "self.attained and True", False),
    ("pucci", "attained", "pucci.py",
     "self.attained and self.worst_gap <= PUCCI_TOL", "True and self.worst_gap <= PUCCI_TOL",
     False),
    ("convexity", "lines", "convexity.py",
     "agreed = lines.passed == expected and", "agreed = True and", False),
    ("convexity", "eigen", "convexity.py",
     "and eigen.passed == expected", "and True", False),
    ("pointwise-bound", "semiconvex", "estimates.py",
     "passed = (\n        semiconvex_ok", "passed = (\n        True", False),
    ("pointwise-bound", "supersolution", "estimates.py",
     "and supersolution_ok\n", "and True\n", False),
    ("pointwise-bound", "lower margin", "estimates.py",
     "and lower_margin >= -tol", "and True", False),
    ("pointwise-bound", "upper margin", "estimates.py",
     "and upper_margin >= -up_tol", "and True", False),
    ("pointwise-bound", "surrogate margin", "estimates.py",
     "and surrogate_margin >= -tol", "and True", False),
    ("ball-volume", "pull", "estimates.py",
     "pull, abs(pull) <= MAX_PULL)", "pull, True)", False),
]


def _passes(args: list[str], file: str = "", old: str = "", new: str = "") -> bool:
    """Whether pytest passes on a copy of the checkout, with old replaced by new in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, tree, ignore=ignore)
        if file:
            path = tree / "src" / "carnotx" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{old!r} occurs {text.count(old)} times in {file}, not once")
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
        run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return run.returncode == 0


def main(args: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_controls import CONDITIONS

    if [m[:2] for m in MUTANTS] != list(CONDITIONS):
        raise SystemExit("MUTANTS must hold one row per pair of CONDITIONS, in its order")
    args = args or ["tests/test_controls.py"]
    survivors, unexpected, start = 0, [], time.perf_counter()
    if not _passes(args):
        raise SystemExit(f"pytest fails on the unmutated checkout: {' '.join(args)}")
    for command, condition, file, old, new, expected in MUTANTS:
        survived = _passes(args, file, old, new)
        survivors += survived
        note = " (expected)" if survived and expected else ""
        print(f"{'SURVIVED' if survived else 'killed':8} {command}: {condition}{note}", flush=True)
        if survived and not expected:
            unexpected.append(f"{command}: {condition}")
    seconds, killed = time.perf_counter() - start, len(MUTANTS) - survivors
    print(f"killed {killed} of {len(MUTANTS)} in {seconds:.0f} s: {' '.join(args)}")
    for name in unexpected:
        print(f"unexpected survivor: {name}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
