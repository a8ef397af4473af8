"""Span tracer that wraps carnotx's public functions from outside the package.

Every public function of the traced layers is replaced, at every module
attribute of ``carnotx`` and ``carnotx.*`` that holds it, by a wrapper that
records one span: (id, parent id, job id, name, start, end, amount).  The
rebinding matters because ``from .pucci import sym_eigenvalues`` copies the
function into ``estimates`` and ``convexity`` and ``cli`` imports from every
layer; wrapping only the defining module would miss those calls.

Spans stay in memory and are summarised into per-layer metrics when the
run ends.  A layer's self time is the duration of its spans minus the part
of each span covered by its child spans.  Spans opened on a worker thread
with nothing open on that thread take the innermost span open on the main
thread as their parent, which is the span that started the pool.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import resource
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "estimates", "calculus", "pucci", "convexity", "group", "rng", "report")


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    lead = 1
    for dim in shape[:-1]:
        lead *= int(dim)
    return lead


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# Amount recorded with a span, from the call's bound arguments and result.
_AMOUNTS = {
    "group.homogeneous_norm": lambda a, r: _points(a["x"]),
    "calculus.radial_hessian_eigenvalues": lambda a, r: _points(a["pts"]),
    "pucci.pucci_oracle_check": lambda a, r: int(a["n_samples"]),
    "convexity.check_semiconvex_lines": lambda a, r: int(a["line_count"]),
    "convexity.check_semiconvex_eigen": lambda a, r: int(a["point_count"]),
    "report.dumps": lambda a, r: len(r.encode("utf-8")),
}
# Functions whose span amount is the process CPU seconds spent inside them.
_CPU_AMOUNT = {"estimates.sweep_scaling"}
# Factory whose returned sampler is traced as its own span.
_SAMPLER_FACTORY = "estimates.gauge_ball_sampler"
FIELD_EVALS = "calculus.field_evals"


class Tracer:
    """Records spans for calls into carnotx while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._undo: list[tuple] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _span(self, name: str, fn, amount=None, cpu: bool = False):
        tracer = self
        signature = inspect.signature(fn) if amount is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            job = tracer.job
            stack.append(sid)
            cpu0 = _cpu_s() if cpu else 0.0
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                used = _cpu_s() - cpu0 if cpu else None
                stack.pop()
                if amount is not None and result is not None:
                    used = amount(signature.bind(*args, **kwargs).arguments, result)
                tracer.spans.append((sid, parent, job, name, start, end, used))

        return wrapper

    def _count(self, name: str, amount: int) -> None:
        stack = self._stack()
        now = perf_counter()
        self.spans.append((next(self._ids), self._parent(stack), self.job, name, now, now, amount))

    # --- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every public function of every layer at all its bindings."""
        modules = {layer: importlib.import_module(f"carnotx.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._span(name, fn, _AMOUNTS.get(name), name in _CPU_AMOUNT)
                if name == _SAMPLER_FACTORY:
                    wrapped = self._sampler_factory(name, wrapped)
                wrappers[id(fn)] = wrapped
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "carnotx" or mod_name.startswith("carnotx.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        self._wrap_field_evaluate(modules["calculus"].ScalarField)
        return self

    def _sampler_factory(self, name: str, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return tracer._span(f"{name}.draw", factory(*args, **kwargs), lambda a, r: len(r))

        return make

    def _wrap_field_evaluate(self, field_cls) -> None:
        """Count the points every ScalarField instance is evaluated at."""
        tracer = self
        original_init = field_cls.__init__

        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            evaluate = obj.evaluate
            if getattr(evaluate, "_perfbench_counted", False):
                return

            def counted(x):
                tracer._count(FIELD_EVALS, _points(x))
                return evaluate(x)

            counted._perfbench_counted = True
            object.__setattr__(obj, "evaluate", counted)

        self._undo.append((field_cls, "__init__", original_init))
        field_cls.__init__ = init

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: str) -> None:
        """Write the spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "job", "name", "start", "end", "amount"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- summaries ------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _new_totals() -> dict:
    return {"self": defaultdict(float), "calls": defaultdict(int), "s": defaultdict(float), "amount": defaultdict(float)}


def job_totals(spans: list[tuple]) -> dict[int, dict]:
    """Per job: self seconds per layer, and calls, seconds and amounts per name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, job, name, start, end, amount in spans:
        if parent is not None and end > start:
            children[parent].append((start, end))
    jobs: dict[int, dict] = defaultdict(_new_totals)
    for sid, parent, job, name, start, end, amount in spans:
        tot = jobs[job]
        layer = name.split(".", 1)[0]
        duration = end - start
        tot["self"][layer] += duration - _covered(start, end, children.get(sid, []))
        tot["calls"][name] += 1
        tot["s"][name] += duration
        if amount is not None:
            tot["amount"][name] += amount
    return jobs


def _layer_metrics(tot: dict) -> dict[str, float]:
    """Every per-layer metric of one job, by name."""
    calls, secs, amount, self_s = tot["calls"], tot["s"], tot["amount"], tot["self"]
    total_self = sum(self_s.values())

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_share"] = per(self_s[layer], total_self)
    for name in (
        "estimates.sweep_scaling",
        "estimates.verify_pucci_annihilation",
        "estimates.ball_volume",
        "estimates.pointwise_bound_check",
        "calculus.horizontal_hessian_sym",
        "calculus.radial_hessian",
        "calculus.radial_hessian_eigenvalues",
        "pucci.sym_eigenvalues",
        "pucci.pucci_oracle_check",
        "convexity.check_semiconvex_lines",
        "convexity.check_semiconvex_eigen",
        "group.homogeneous_norm",
        "rng.substream",
        "report.dumps",
    ):
        out[f"{name}.s"] = secs[name]
    for name in (
        "calculus.horizontal_hessian_sym",
        "calculus.radial_hessian",
        "pucci.sym_eigenvalues",
        "pucci.pucci_plus",
        "pucci.pucci_minus",
        "pucci.pucci_oracle_check",
        "convexity.integrate_xline",
        "group.homogeneous_norm",
        "rng.substream",
        "report.write_json",
    ):
        out[f"{name}.calls"] = calls[name]
    out["estimates.sweep_scaling.cpu_per_wall"] = per(
        amount["estimates.sweep_scaling"], secs["estimates.sweep_scaling"]
    )
    out["estimates.gauge_ball_sampler.points"] = amount["estimates.gauge_ball_sampler.draw"]
    out["calculus.field_evals.points"] = amount[FIELD_EVALS]
    out["calculus.horizontal_hessian_sym.us_per_point"] = per(
        secs["calculus.horizontal_hessian_sym"], calls["calculus.horizontal_hessian_sym"], 1e6
    )
    out["calculus.radial_hessian_eigenvalues.points"] = amount["calculus.radial_hessian_eigenvalues"]
    out["pucci.sym_eigenvalues.us_per_matrix"] = per(
        secs["pucci.sym_eigenvalues"], calls["pucci.sym_eigenvalues"], 1e6
    )
    out["pucci.pucci_oracle_check.samples"] = amount["pucci.pucci_oracle_check"]
    out["convexity.check_semiconvex_lines.lines"] = amount["convexity.check_semiconvex_lines"]
    out["convexity.check_semiconvex_eigen.points"] = amount["convexity.check_semiconvex_eigen"]
    # Each candidate line is probed forward and backward by integrate_xline.
    out["convexity.line_accept_ratio"] = per(
        amount["convexity.check_semiconvex_lines"], calls["convexity.integrate_xline"] / 2.0
    )
    out["group.homogeneous_norm.points"] = amount["group.homogeneous_norm"]
    out["report.bytes"] = amount["report.dumps"]
    out["trace.spans"] = sum(calls.values())
    return out


def _unit(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio") or name.endswith("cpu_per_wall"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("us_per_point") or name.endswith("us_per_matrix"):
        return "us"
    if name == "report.bytes":
        return "bytes"
    return "count"


def _is_count(name: str) -> bool:
    return _unit(name) == "count" or name in ("report.bytes", "convexity.line_accept_ratio")


def layer_metrics(spans: list[tuple], timed_jobs: list[int], count_job: int) -> dict[str, dict]:
    """Per-layer metrics: counts from ``count_job``, times as medians over ``timed_jobs``.

    Counts repeat exactly for a given job seed, so they are taken from one
    job; timings are the median over the timed jobs.
    """
    per_job = {job: _layer_metrics(tot) for job, tot in job_totals(spans).items()}
    empty = _layer_metrics(_new_totals())
    counted = per_job.get(count_job, empty)
    timed = [per_job.get(job, empty) for job in timed_jobs]
    out = {}
    for name in counted:
        value = counted[name] if _is_count(name) else statistics.median(m[name] for m in timed)
        out[name] = {"value": value, "unit": _unit(name)}
    return out
