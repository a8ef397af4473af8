"""The benchmark's workloads: fixed lists of ``carnotx.cli.run`` calls.

One pass through a workload's list is a job.  Every call of a job gets the
job's ``--seed``, derived from the workload seed and the job index, and an
``--out`` path for its JSON report.
"""

from __future__ import annotations

import hashlib
import os

# The sweep is the only threaded workload; it never asks for more threads
# than the machine has cores.
SWEEP_WORKERS = str(min(2, os.cpu_count() or 1))

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # The paper's headline computation at the pinned arguments (six dyadic
    # radii, 20000 annihilation samples): Monte-Carlo moments in
    # `estimates`, threaded and the only large-memory workload.
    "sweep": (
        ("counterexample", "--samples", "1000000", "--q", "2,8/3", "--workers", SWEEP_WORKERS),
    ),
    # 400 finite-difference horizontal Hessians on H^2: `calculus` stencils,
    # no Jacobi calls, negligible sampling.
    "fd-hessian": (("verify-radial", "--group", "h:2", "--points", "200"),),
    # Scalar Jacobi on 2x2 matrices (analytic Hessians), the X-line
    # convexity checker, and Jacobi on 6x6 beside batched QR in the oracle.
    "spectral": (
        ("pointwise-bound", "--count", "1000"),
        ("convexity",),
        ("pucci", "--dim", "6", "--count", "64", "--samples", "1024"),
    ),
}


def job_seed(workload: str, seed: int, index: int) -> int:
    """The ``--seed`` of job ``index``: a 31-bit hash of (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def single_worker(call: tuple[str, ...]) -> tuple[str, ...]:
    """The same call with ``--workers 1``, for the byte-identity check."""
    args = list(call)
    args[args.index("--workers") + 1] = "1"
    return tuple(args)
