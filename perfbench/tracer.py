"""Outside-in layer trace of the uavee public API.

Wraps the functions as their caller modules look them up at call time
(`uavee.bench.run_algorithm`, `uavee.algorithms.solve`, `uavee.core.sinr`,
...) and the oracles of every ConvexProgram handed to `solve`. Nothing under
`src/` is edited; `uninstall` restores every original.

Layer boundaries (trial, scenario, run_algorithm, find_feasible, subproblem
build, barrier solve) become spans: name, start, end, parent, trial id and
calling algorithm. Oracle and core formula calls are far too many to keep
one span each (tens of thousands per trial), so they are leaf counters:
their count and time accrue to the enclosing span, whose self time is its
duration minus its child spans minus its leaf time.

Derived metrics: engine.solve.us_per_newton_step is barrier-solve time
(oracles included) per Newton step; oracle.evals_per_newton_step is
constraint-value evaluations per Newton step, so line-search backtracks
show as evaluations above two; algorithms.run_ms.<alg> is the inclusive
run_algorithm time, the base for the layer shares; trace.trials is the base
for every count.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from pathlib import Path

from harness import ALGORITHMS

import uavee.algorithms as algorithms
import uavee.bench as bench
import uavee.core as core
from uavee.engine import (
    Functional,
    InfeasibleStartError,
    NoFeasiblePointFoundError,
    SolveStatus,
)

SUBSOLVED = ("jhtpa", "opa")  # the algorithms that call the barrier engine

# Leaf counters: wrapped core formulas, by the metric that counts them.
CORE_FUNCTIONS = {
    "log_bound_coeffs": "core.log_bound_coeffs",
    "surrogate_psi": "core.surrogate_psi",
    "rates_from_inverse": "core.rate_evals",
    "pinned_rates": "core.rate_evals",
    "sinr": "core.rate_evals",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run emits, as (name, unit)."""
    out = [("scenario.calls", "count"), ("scenario.ms", "ms")]
    split = [
        ("engine.solve.calls", "count"),
        ("engine.solve.self_ms", "ms"),
        ("engine.solve.newton_steps", "count"),
        ("engine.solve.newton_steps_per_call", "steps/call"),
        ("engine.solve.barrier_stages", "count"),
        ("engine.solve.us_per_newton_step", "us/step"),
        ("engine.solve.max_iterations", "count"),
        ("engine.solve.numerical_failure", "count"),
        ("engine.solve.infeasible_start", "count"),
        ("oracle.values.calls", "count"),
        ("oracle.jacobian.calls", "count"),
        ("oracle.hessian.calls", "count"),
        ("oracle.objective.calls", "count"),
        ("oracle.domain_guard.calls", "count"),
        ("oracle.ms", "ms"),
        ("oracle.evals_per_newton_step", "evals/step"),
        ("engine.find_feasible.calls", "count"),
        ("engine.find_feasible.ms", "ms"),
        ("engine.find_feasible.proposals", "count"),
        ("engine.find_feasible.proposals_per_call", "proposals/call"),
        ("engine.find_feasible.exhausted", "count"),
    ]
    out += [(f"{name}.{alg}", unit) for name, unit in split for alg in SUBSOLVED]
    out += [
        ("algorithms.build.calls", "count"),
        ("algorithms.build.ms", "ms"),
        ("algorithms.sca_iterations", "count"),
        ("algorithms.subsolver_calls", "count"),
        ("algorithms.boundary_fallback", "count"),
        ("algorithms.self_ms", "ms"),
        ("algorithms.raised.AssertionError", "count"),
        ("algorithms.raised.NoFeasiblePointFoundError", "count"),
        ("algorithms.raised.other", "count"),
    ]
    out += [(f"algorithms.run_ms.{alg}", "ms") for alg in ALGORITHMS]
    out += [
        ("core.log_bound_coeffs.calls", "count"),
        ("core.rate_evals.calls", "count"),
        ("core.surrogate_psi.calls", "count"),
        ("core.ms", "ms"),
        ("trace.trials", "count"),
        ("trace.overhead_frac", "frac"),
    ]
    return out


class Tracer:
    """Spans and counters for one traced pass; `install` / `uninstall` bracket it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()  # deterministic: the fingerprint
        self.leaf_ms: Counter = Counter()
        self._stack: list[dict] = []
        self._in_leaf = False
        self._originals: list[tuple[object, str, object]] = []
        self.trial: int | None = None
        self.algorithm: str | None = None

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "trial": self.trial,
            "algorithm": self.algorithm,
            "child_s": 0.0,
            "leaf_s": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def _leaf(self, metric: str, fn):
        layer = metric.split(".", 1)[0]  # "oracle" or "core"

        def leaf(*args, **kwargs):
            self.counts[metric] += 1
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_leaf = False
                self._stack[-1]["leaf_s"] += elapsed
                self.leaf_ms[f"{layer}.{self.algorithm}"] += elapsed * 1e3

        return leaf

    # -- wrappers ------------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapped

    def _run_algorithm(self, fn):
        def wrapped(name, *args, **kwargs):
            self.algorithm = name
            span = self.open("algorithms.run_algorithm")
            try:
                report = fn(name, *args, **kwargs)
            except Exception as exc:
                span["raised"] = type(exc).__name__
                known = ("AssertionError", "NoFeasiblePointFoundError")
                kind = span["raised"] if span["raised"] in known else "other"
                self.counts[f"algorithms.raised.{kind}"] += 1
                raise
            finally:
                self.close(span)
                self.algorithm = None
            self.counts["algorithms.sca_iterations"] += report.iterations
            self.counts["algorithms.subsolver_calls"] += report.subsolver_calls
            if name in SUBSOLVED and report.subsolver_calls == 0:
                self.counts["algorithms.boundary_fallback"] += 1
            return report

        return wrapped

    def _find_feasible(self, fn):
        def wrapped(constraints, sampler, *args, **kwargs):
            alg = self.algorithm
            self.counts[f"engine.find_feasible.calls.{alg}"] += 1

            def counted_sampler(rng, k):
                self.counts[f"engine.find_feasible.proposals.{alg}"] += 1
                return sampler(rng, k)

            span = self.open("engine.find_feasible")
            try:
                return fn(constraints, counted_sampler, *args, **kwargs)
            except NoFeasiblePointFoundError:
                self.counts[f"engine.find_feasible.exhausted.{alg}"] += 1
                raise
            finally:
                self.close(span)

        return wrapped

    def _counted_program(self, prog):
        alg = self.algorithm

        def oracle(kind: str, fn):
            return self._leaf(f"oracle.{kind}.calls.{alg}", fn)

        obj = prog.objective
        return dataclasses.replace(
            prog,
            objective=Functional(
                oracle("objective", obj.value), oracle("objective", obj.grad), oracle("objective", obj.hess)
            ),
            domain_guard=oracle("domain_guard", prog.domain_guard),
            constraint_values=oracle("values", prog.constraint_values),
            constraint_jacobian=oracle("jacobian", prog.constraint_jacobian),
            constraint_hessian_weighted=oracle("hessian", prog.constraint_hessian_weighted),
        )

    def _solve(self, fn):
        def wrapped(prog, *args, **kwargs):
            alg = self.algorithm
            self.counts[f"engine.solve.calls.{alg}"] += 1
            span = self.open("engine.solve")
            try:
                outcome = fn(self._counted_program(prog), *args, **kwargs)
            except InfeasibleStartError:
                self.counts[f"engine.solve.infeasible_start.{alg}"] += 1
                raise
            finally:
                self.close(span)
            self.counts[f"engine.solve.newton_steps.{alg}"] += outcome.newton_step_count
            self.counts[f"engine.solve.barrier_stages.{alg}"] += len(outcome.outer_objective_trace)
            if outcome.status is SolveStatus.MAX_ITERATIONS:
                self.counts[f"engine.solve.max_iterations.{alg}"] += 1
            elif outcome.status is SolveStatus.NUMERICAL_FAILURE:
                self.counts[f"engine.solve.numerical_failure.{alg}"] += 1
            return outcome

        return wrapped

    def install(self) -> None:
        for attr in ("generate_placement", "realize_channels"):
            self._patch(bench, attr, self._span_wrapper(f"scenario.{attr}", getattr(bench, attr)))
        self._patch(bench, "run_algorithm", self._run_algorithm(bench.run_algorithm))
        self._patch(algorithms, "find_feasible", self._find_feasible(algorithms.find_feasible))
        self._patch(algorithms, "solve", self._solve(algorithms.solve))
        for attr in ("build_jhtpa_subproblem", "build_opa_subproblem"):
            self._patch(algorithms, attr, self._span_wrapper("algorithms.build", getattr(algorithms, attr)))
        for attr, metric in CORE_FUNCTIONS.items():
            self._patch(core, attr, self._leaf(f"{metric}.calls", getattr(core, attr)))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def write_spans(self, path: Path, origin: float) -> None:
        """One JSON span per line, times in ms from origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "id": s["id"],
                    "name": s["name"],
                    "start_ms": (s["start"] - origin) * 1e3,
                    "end_ms": (s["end"] - origin) * 1e3,
                    "parent": s["parent"],
                    "trial": s["trial"],
                    "algorithm": s["algorithm"],
                    "self_ms": self_ms(s),
                }
                if "raised" in s:
                    record["raised"] = s["raised"]
                fh.write(json.dumps(record) + "\n")

    def metrics(self, trials: int, overhead_frac: float) -> dict[str, float]:
        """Aggregate spans and counters into the per-layer metrics."""
        ms: Counter = Counter()
        self_: Counter = Counter()
        for s in self.spans:
            dur = (s["end"] - s["start"]) * 1e3
            key = s["name"]
            if key.startswith("scenario."):
                key = "scenario"
            elif key in ("engine.solve", "engine.find_feasible"):
                key = f"{key}.{s['algorithm']}"
            elif key == "algorithms.run_algorithm":
                ms[f"algorithms.run_ms.{s['algorithm']}"] += dur
            ms[key] += dur
            self_[key] += self_ms(s)
        c = self.counts
        out: dict[str, float] = {
            "scenario.calls": c["scenario.generate_placement.calls"],
            "scenario.ms": ms["scenario"],
        }
        for alg in SUBSOLVED:
            steps = c[f"engine.solve.newton_steps.{alg}"]
            calls = c[f"engine.solve.calls.{alg}"]
            ff_calls = c[f"engine.find_feasible.calls.{alg}"]
            proposals = c[f"engine.find_feasible.proposals.{alg}"]
            for name in ("calls", "newton_steps", "barrier_stages", "max_iterations", "numerical_failure", "infeasible_start"):
                out[f"engine.solve.{name}.{alg}"] = c[f"engine.solve.{name}.{alg}"]
            out[f"engine.solve.self_ms.{alg}"] = self_[f"engine.solve.{alg}"]
            out[f"engine.solve.newton_steps_per_call.{alg}"] = steps / calls if calls else 0.0
            out[f"engine.solve.us_per_newton_step.{alg}"] = 1e3 * ms[f"engine.solve.{alg}"] / steps if steps else 0.0
            for kind in ("values", "jacobian", "hessian", "objective", "domain_guard"):
                out[f"oracle.{kind}.calls.{alg}"] = c[f"oracle.{kind}.calls.{alg}"]
            out[f"oracle.ms.{alg}"] = self.leaf_ms[f"oracle.{alg}"]
            out[f"oracle.evals_per_newton_step.{alg}"] = (
                c[f"oracle.values.calls.{alg}"] / steps if steps else 0.0
            )
            out[f"engine.find_feasible.calls.{alg}"] = ff_calls
            out[f"engine.find_feasible.ms.{alg}"] = ms[f"engine.find_feasible.{alg}"]
            out[f"engine.find_feasible.proposals.{alg}"] = proposals
            out[f"engine.find_feasible.proposals_per_call.{alg}"] = proposals / ff_calls if ff_calls else 0.0
            out[f"engine.find_feasible.exhausted.{alg}"] = c[f"engine.find_feasible.exhausted.{alg}"]
        out["algorithms.build.calls"] = c["algorithms.build.calls"]
        out["algorithms.build.ms"] = ms["algorithms.build"]
        for name in ("sca_iterations", "subsolver_calls", "boundary_fallback"):
            out[f"algorithms.{name}"] = c[f"algorithms.{name}"]
        out["algorithms.self_ms"] = self_["algorithms.run_algorithm"]
        for kind in ("AssertionError", "NoFeasiblePointFoundError", "other"):
            out[f"algorithms.raised.{kind}"] = c[f"algorithms.raised.{kind}"]
        for alg in ALGORITHMS:
            out[f"algorithms.run_ms.{alg}"] = ms[f"algorithms.run_ms.{alg}"]
        out["core.log_bound_coeffs.calls"] = c["core.log_bound_coeffs.calls"]
        out["core.rate_evals.calls"] = c["core.rate_evals.calls"]
        out["core.surrogate_psi.calls"] = c["core.surrogate_psi.calls"]
        out["core.ms"] = sum(v for k, v in self.leaf_ms.items() if k.startswith("core."))
        out["trace.trials"] = trials
        out["trace.overhead_frac"] = overhead_frac
        return out

    def fingerprint(self) -> dict[str, int]:
        """The counts that repeat exactly for one code, workload and seed."""
        return dict(sorted((k, int(v)) for k, v in self.counts.items() if v))


def self_ms(span: dict) -> float:
    return (span["end"] - span["start"] - span["child_s"] - span["leaf_s"]) * 1e3
