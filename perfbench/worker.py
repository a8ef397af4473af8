"""Run one workload in this process as a closed loop of jobs.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
Job 0 warms caches and is the job whose per-layer counts are reported;
jobs 1, 2, ... are timed until ``--seconds`` have passed.  A fixed
reference kernel that does not touch carnotx is timed after job 0 and
after every timed job, so that job time can be stated in units of the
machine's speed during the run.  Prints one JSON line with every job's wall time, verdict
and report digests, and the reference times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import tempfile
import time
import traceback

import numpy as np

from workloads import WORKLOADS, job_seed, single_worker

_SMALL = np.random.default_rng(0).standard_normal((4, 4))
_BIG = np.random.default_rng(1).uniform(-1.0, 1.0, size=(20_000, 3))


def reference_s() -> float:
    """Wall time of a fixed kernel with carnotx's mix of work, without carnotx."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):  # interpreter-bound arithmetic
        acc += i * i % 7
    m = _SMALL
    for _ in range(6_000):  # many NumPy calls on tiny arrays, as in the Jacobi and FD loops
        m = np.tanh(m @ _SMALL) + 0.5 * np.eye(4)
    h2 = np.sum(_BIG[:, :2] ** 2, axis=1)
    for _ in range(80):  # whole-array passes, as in the Monte-Carlo sweep
        rho = (h2**2 + _BIG[:, 2] ** 2) ** 0.25
        acc += int(np.count_nonzero(rho < 0.9))
    return time.perf_counter() - start


def run_job(cli, calls, seed: int, tmpdir: str) -> dict:
    """One pass through ``calls``; a call fails if it raises, exits non-zero
    or writes a report whose ``passed`` is not true."""
    outs = [os.path.join(tmpdir, f"call{k}.json") for k in range(len(calls))]
    for out in outs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
    errors: list[str] = []
    sink = io.StringIO()
    start = time.perf_counter()
    for call, out in zip(calls, outs):
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.run([*call, "--seed", str(seed), "--out", out])
        except Exception:
            code = None
            errors.append(traceback.format_exc(limit=4))
        if code != 0:
            errors.append(f"{call[0]} exited with {code}")
    wall = time.perf_counter() - start
    digests = []
    for call, out in zip(calls, outs):
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except OSError:
            errors.append(f"{call[0]} wrote no report")
            continue
        digests.append(hashlib.sha256(data).hexdigest())
        try:
            passed = json.loads(data).get("passed")
        except ValueError as err:
            passed = f"unreadable ({err})"
        if passed is not True:
            errors.append(f"{call[0]} report has passed={passed!r}")
    if errors:
        errors.append(sink.getvalue()[-2000:])
    return {"seed": seed, "wall_s": wall, "ok": not errors, "sha256": digests, "errors": errors}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--spans", help="write the recorded spans here (gzip)")
    parser.add_argument("--check-workers", action="store_true",
                        help="re-run the first timed job at --workers 1 and compare report bytes")
    parser.add_argument("--tmp", required=True, help="directory for the jobs' reports")
    args = parser.parse_args()

    import carnotx.cli as cli

    calls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    jobs: list[dict] = []
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmpdir:

        def one_job(index: int) -> None:
            if tracer is not None:
                tracer.job = index
            job = run_job(cli, calls, job_seed(args.workload, args.seed, index), tmpdir)
            job["index"] = index
            jobs.append(job)

        one_job(0)
        reference = [reference_s()]
        start = time.perf_counter()
        while True:
            one_job(len(jobs))
            reference.append(reference_s())
            if time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        layers = None
        if tracer is not None:
            tracer.uninstall()
            from tracer import layer_metrics

            layers = layer_metrics(tracer.spans, [j["index"] for j in jobs[1:]], count_job=0)
            if args.spans:
                tracer.write(args.spans)

        single = None
        if args.check_workers and any("--workers" in call for call in calls):
            first = jobs[1]
            rerun = run_job(
                cli, [single_worker(c) if "--workers" in c else c for c in calls], first["seed"], tmpdir
            )
            single = {
                "seed": first["seed"],
                "workers1_wall_s": rerun["wall_s"],
                "workers_n_wall_s": first["wall_s"],
                "identical": rerun["ok"] and first["ok"] and rerun["sha256"] == first["sha256"],
                "errors": rerun["errors"],
            }

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "elapsed_s": elapsed,
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
        "reference_s": reference,
        "single_worker_check": single,
        "layers": layers,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
