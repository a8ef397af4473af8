"""The carnotx benchmark: end-to-end and per-layer numbers for three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in one fresh single-client process (``worker.py``) as a
closed loop of jobs; a job is one pass through the workload's fixed list of
``carnotx.cli.run`` calls (``workloads.py``), seeded from ``--seed`` and the
job index.  Job 0 warms up; jobs after it are timed for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``job_mean_ref``, the mean wall time of the timed jobs divided by the mean
wall time of the reference kernel timed between them (``worker.py``), so
job time in units of the machine's current speed; ``peak_rss_mb``,
``ru_maxrss`` of the workload's
process; and ``setup_s``, the median over several fresh interpreters of the
time from process start until a job could run (interpreter start,
``import carnotx``, parser build).  The raw ``jobs_per_s`` and
``job_p50_s`` and ``fail_frac`` are printed beside them; failures are
carried as ``failed``/``attempted`` in the result.

Job times are divided by the reference kernel because on a shared 2-vCPU
Intel Xeon virtual machine the speed of the same job drifted by up to 2x
over tens of seconds: across ten 30-second runs per workload the raw
median job time spread by 7-41% (quartile distance over median), the
reference-relative mean by 4-7%.

``--trace 1`` splits ``--seconds`` between an untraced and a traced
process and reports the per-layer metrics of ``tracer.py`` plus the
tracing overhead: traced minus untraced median job time, and the ratio of
their reference-relative means minus one.

Every job writes its reports to a temporary directory; a job fails if a
call raises, exits non-zero or reports ``"passed": false``.  Sweep runs
also re-run their first timed job at ``--workers 1`` and require
byte-identical reports.  Child processes get ``src`` on ``PYTHONPATH`` and
single-threaded BLAS, so no process runs more threads than the machine has
cores.  Full results, with report SHA-256 digests and the machine record,
go to ``.perfbench_out/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 160
PROBE = (
    "import contextlib, io\n"
    "import carnotx.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    carnotx.cli.run(['--version'])\n"
    "print('ready', flush=True)\n"
)


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe_setup(root: Path, env: dict) -> float:
    """Seconds from starting a fresh interpreter until carnotx is ready to run a job."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed


def run_worker(root: Path, env: dict, out_dir: Path, workload: str, seed: int,
               seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--tmp", str(out_dir)]
    if trace:
        cmd += ["--trace", "--spans", str(out_dir / f"{workload}.spans.jsonl.gz")]
    else:
        cmd += ["--check-workers"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}: {proc.stderr.strip()[-1500:]}")
    return json.loads(lines[-1])


def machine_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def tally(worker: dict) -> tuple[int, int]:
    """(attempted, failed) over a worker's jobs and its workers=1 check."""
    attempted = len(worker["jobs"])
    failed = sum(not job["ok"] for job in worker["jobs"])
    check = worker["single_worker_check"]
    if check is not None:
        attempted += 1
        failed += not check["identical"]
    return attempted, failed


def timed_walls(worker: dict) -> list[float]:
    return [job["wall_s"] for job in worker["jobs"][1:]]


def relative_mean(worker: dict) -> float:
    """Mean timed job wall time over mean reference kernel wall time."""
    return statistics.mean(timed_walls(worker)) / statistics.mean(worker["reference_s"])


def run_workload(root: Path, out_dir: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    env = child_env(root)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record()}
    if not trace:
        # Half the probes before the workload and half after, so that the
        # median spans the run rather than one moment of machine load.
        setups = [probe_setup(root, env) for _ in range(SETUP_PROBES // 2)]
        worker = run_worker(root, env, out_dir, workload, seed, seconds, trace=False)
        setups += [probe_setup(root, env) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {
            "job_mean_ref": {"value": relative_mean(worker), "unit": "ref"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        record.update(setup_samples_s=setups, workers=[worker])
    else:
        base = run_worker(root, env, out_dir, workload, seed, seconds / 2.0, trace=False)
        traced = run_worker(root, env, out_dir, workload, seed, seconds / 2.0, trace=True)
        overhead = statistics.median(timed_walls(traced)) - statistics.median(timed_walls(base))
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": relative_mean(traced) / relative_mean(base) - 1.0,
                                          "unit": "ratio"}
        record.update(workers=[base, traced])
    attempted = failed = 0
    for worker in record["workers"]:
        a, f = tally(worker)
        attempted += a
        failed += f
    record["machine"].update(numpy=record["workers"][0]["numpy"])
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summarize(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"machine: nproc {m['nproc']}, {m['cpu_model']}, Python {m['python']}, numpy {m['numpy']}")
    for worker in record["workers"]:
        walls = timed_walls(worker)
        print(f"  {'traced' if worker['traced'] else 'untraced'} process: {len(worker['jobs'])} jobs "
              f"(1 warm-up, {len(walls)} timed over {worker['elapsed_s']:.2f} s); "
              f"jobs_per_s {len(walls) / sum(walls):.6g} 1/s, job_p50_s {statistics.median(walls):.6g} s "
              f"(n={len(walls)}), reference kernel p50 {statistics.median(worker['reference_s']):.6g} s")
        for job in worker["jobs"]:
            if not job["ok"]:
                print(f"    job {job['index']} (seed {job['seed']}) FAILED: {' | '.join(job['errors'])[:600]}")
        check = worker["single_worker_check"]
        if check is not None:
            verdict = "byte-identical" if check["identical"] else "DIFFERENT"
            print(f"  --workers 1 re-run of seed {check['seed']}: reports {verdict}; "
                  f"{check['workers1_wall_s']:.3f} s single-threaded vs {check['workers_n_wall_s']:.3f} s")
    for name, metric in record["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"  {'fail_frac':48s} {frac:.6g} ratio ({record['failed']}/{record['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "carnotx" / "__init__.py").is_file():
        print(f"error: no carnotx sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(root, out_dir, name, args.seed, args.seconds, bool(args.trace))
            summarize(record)
            records.append(record)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
