"""Regenerate the golden reports that ``tests/test_golden.py`` compares against.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

It runs every case below in process, writes its report files and its
standard output (``<case>.stdout``) into this directory, and records the platform they were made on in ``platform.json``.
It prints the path of each of those files whose bytes changed, one a line,
and under each such JSON file, indented, each key path whose value moved
with its old and new value (``json_differences``), leaving out
``schema_version``.
The bits of a report depend on numpy's BLAS dots, its LAPACK eigensolver,
its SIMD ``pow`` (the q-th powers and the profiles) and the C library's
``pow``, so goldens made elsewhere may legitimately differ in last digits.
The gauge's root is two correctly rounded square roots and uses no ``pow``.
Regenerate only when a change means to alter report bytes (a schema bump,
or a value change it states), never to make a failing comparison pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from pathlib import Path
from typing import Optional

import numpy as np
from numpy._core import _multiarray_umath as umath

from carnotx.cli import run

HERE = Path(__file__).resolve().parent

# Each case is one ``carnotx`` call; ``files`` maps an output option to the
# file it writes.  The six subcommands at their defaults come first, then
# every call of the benchmark's workloads at the default seed, then cases
# that pin a path the others miss.
CASES = {
    "counterexample": (
        ["counterexample"],
        {"--out": "counterexample.json", "--csv": "counterexample.csv"},
    ),
    "verify-radial": (["verify-radial"], {"--out": "verify-radial.json"}),
    "pucci": (["pucci"], {"--out": "pucci.json"}),
    "convexity": (["convexity"], {"--out": "convexity.json"}),
    "pointwise-bound": (["pointwise-bound"], {"--out": "pointwise-bound.json"}),
    "ball-volume": (["ball-volume"], {"--out": "ball-volume.json"}),
    "bench-sweep": (
        ["counterexample", "--samples", "1000000", "--q", "2,8/3", "--workers", "2"],
        {"--out": "bench-sweep.json"},
    ),
    "bench-verify-radial-h2": (
        ["verify-radial", "--group", "h:2", "--points", "200"],
        {"--out": "bench-verify-radial-h2.json"},
    ),
    "bench-pointwise-bound": (
        ["pointwise-bound", "--count", "1000"],
        {"--out": "bench-pointwise-bound.json"},
    ),
    "bench-pucci-dim6": (
        ["pucci", "--dim", "6", "--count", "64", "--samples", "1024"],
        {"--out": "bench-pucci-dim6.json"},
    ),
    # The stencil on H^3 (n = 7); the cases above reach only n = 3 and n = 5.
    "verify-radial-h3": (
        ["verify-radial", "--group", "h:3", "--points", "50"],
        {"--out": "verify-radial-h3.json"},
    ),
    # The sweep on H^2 (d = 2, critical q* = 4), where a fifth of the box is inside.
    "counterexample-h2": (
        ["counterexample", "--group", "h:2", "--q", "2,4"],
        {"--out": "counterexample-h2.json"},
    ),
    # The convexity catalog on H^2 (m = 4): 4x4 Hessians; `convexity` above is 2x2.
    "convexity-h2": (["convexity", "--group", "h:2"], {"--out": "convexity-h2.json"}),
}


def run_case(name: str, directory: Path) -> int:
    """Run one case with its report files and ``<name>.stdout`` written into ``directory``.

    Returns the exit code.
    """
    argv, files = CASES[name]
    argv = list(argv)
    for option, filename in files.items():
        argv += [option, str(directory / filename)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(argv)
    (directory / f"{name}.stdout").write_text(stdout.getvalue())
    return code


def environment() -> dict:
    """What the report bits depend on beyond the code itself.

    numpy picks its SIMD loops (``pow`` among them) at run time from the
    targets its build was compiled for and this CPU supports, so those are
    recorded too: its baseline and the dispatch targets found here.  So is
    the LAPACK build that numpy links, whose eigensolver gives the spectra.
    """
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "libc": " ".join(platform.libc_ver()),
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch_found": found,
        "lapack": {"name": lapack["name"], "version": lapack["version"]},
    }


def _snapshot(paths: list[Path]) -> dict[Path, Optional[bytes]]:
    """Each path's bytes, None for a missing file."""
    return {path: path.read_bytes() if path.exists() else None for path in paths}


def _parse_json(text: str):
    # Numbers stay as their text, so -0 differs from 0 and 1 from 1.0;
    # objects stay as ordered pairs, so key order counts.
    return json.loads(text, parse_float=str, parse_int=str, object_pairs_hook=list)


def json_differences(want: str, got: str) -> list[str]:
    """Paths where two reports differ, each with the golden and the new value."""
    diffs = []

    def walk(a, b, path):
        if isinstance(a, list) and isinstance(b, list):
            pairs_a = all(isinstance(x, tuple) for x in a) and bool(a)
            pairs_b = all(isinstance(x, tuple) for x in b) and bool(b)
            if pairs_a and pairs_b:
                keys_a, keys_b = [k for k, _ in a], [k for k, _ in b]
                if keys_a != keys_b:
                    diffs.append(f"{path or '<root>'}: keys {keys_a} != {keys_b}")
                    return
                for (key, va), (_, vb) in zip(a, b):
                    walk(va, vb, f"{path}.{key}" if path else key)
                return
            if not pairs_a and not pairs_b:
                if len(a) != len(b):
                    diffs.append(f"{path}: length {len(a)} != {len(b)}")
                    return
                for i, (va, vb) in enumerate(zip(a, b)):
                    walk(va, vb, f"{path}[{i}]")
                return
        if a != b:
            diffs.append(f"{path or '<root>'}: golden {a!r}, now {b!r}")

    walk(_parse_json(want), _parse_json(got), "")
    if not diffs:
        diffs.append("same values, different layout or whitespace")
    return diffs


def _print_moved(before: dict[Path, Optional[bytes]]) -> None:
    """Print, relative to the checkout, each path whose bytes differ from ``before``.

    Under a JSON file that existed before, print its ``json_differences``,
    those of ``schema_version`` left out.
    """
    for path, old in before.items():
        new = path.read_bytes()
        if new == old:
            continue
        print(path.relative_to(HERE.parents[1]))
        if path.suffix == ".json" and old is not None:
            for line in json_differences(old.decode(), new.decode()):
                if not line.startswith("schema_version:"):
                    print(f"  {line}")


def main() -> int:
    for name in CASES:
        before = _snapshot([HERE / f for f in CASES[name][1].values()] + [HERE / f"{name}.stdout"])
        code = run_case(name, HERE)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
        _print_moved(before)
    before = _snapshot([HERE / "platform.json"])
    (HERE / "platform.json").write_text(json.dumps(environment(), indent=2) + "\n")
    _print_moved(before)
    return 0


if __name__ == "__main__":
    sys.exit(main())
