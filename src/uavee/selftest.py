"""Quick invariant suite behind `uavee selftest`: one PASS/FAIL line per check."""

from __future__ import annotations

import numpy as np

from . import core
from .algorithms import build_jhtpa_subproblem, jhtpa, oht, opa
from .engine import ConvexProgram, Functional, check_gradients, solve
from .scenario import ScenarioConfig, make_scenario


def _surrogate_bound(rng: np.random.Generator) -> bool:
    size = 20000
    lo, hi = np.log(1e-3), np.log(1e3)
    bar = [np.exp(rng.uniform(lo, hi, size)) for _ in range(3)]
    pts = [np.exp(rng.uniform(lo, hi, size)) for _ in range(3)]
    coeffs = core.log_bound_coeffs(*bar)
    psi = core.surrogate_psi(coeffs, *pts)
    truth = np.log1p(1.0 / (pts[0] * pts[1])) / pts[2]
    tangent = core.surrogate_psi(coeffs, *bar)
    truth_bar = np.log1p(1.0 / (bar[0] * bar[1])) / bar[2]
    return bool(
        np.all(psi <= truth + 1e-12)
        and np.all(np.abs(tangent - truth_bar) <= 1e-12 * np.abs(truth_bar))
    )


def _solver_quadratic(_: np.random.Generator) -> bool:
    prog = ConvexProgram(
        dim=1,
        objective=Functional(
            value=lambda z: (z[0] - 3.0) ** 2,
            grad=lambda z: np.array([2.0 * (z[0] - 3.0)]),
            hess=lambda z: np.array([[2.0]]),
        ),
        domain_guard=lambda z: True,
        constraint_values=lambda z: np.array([-z[0], z[0] - 10.0]),
        constraint_jacobian=lambda z: np.array([[-1.0], [1.0]]),
        constraint_hessian_weighted=lambda z, w: np.zeros((1, 1)),
    )
    out = solve(prog, np.array([1.0]))
    return abs(out.z_star[0] - 3.0) < 1e-6


def _jhtpa_gradients(_: np.random.Generator) -> bool:
    config = ScenarioConfig(num_pairs=3, seed=7)
    _, ch = make_scenario(config)
    r_bar = core.qos_threshold(ch, config)
    theta = config.theta_fix
    q = 1.02 / ((theta - 1.0) * config.eta * config.p0_watt * ch.g)
    z = np.concatenate(([theta], q))
    phi = core.energy_efficiency(core.Allocation.from_theta(theta, 1.0 / q), ch, config)
    prog = build_jhtpa_subproblem(z, phi, ch, config, r_bar)
    return check_gradients(prog, z) < 1e-5


def _algorithms_fixture(_: np.random.Generator) -> bool:
    config = ScenarioConfig(num_pairs=2, seed=7)
    _, ch = make_scenario(config)
    for run in (jhtpa, opa, oht):
        report = run(ch, config)
        if report.status != "converged":
            return False
        if not report.feasibility.is_feasible(atol=1e-10):
            return False
        trace = np.asarray(report.trace)
        if np.any(np.diff(trace) < -1e-9):
            return False
    return True


def _determinism(_: np.random.Generator) -> bool:
    config = ScenarioConfig(num_pairs=3, seed=11)
    _, ch = make_scenario(config)
    a = jhtpa(ch, config)
    b = jhtpa(ch, config)
    _, ch2 = make_scenario(config)
    return (
        a.ee_nats_per_joule == b.ee_nats_per_joule
        and np.array_equal(ch.h, ch2.h)
        and np.array_equal(ch.g, ch2.g)
    )


CHECKS = (
    ("surrogate-bound", _surrogate_bound),
    ("solver-quadratic", _solver_quadratic),
    ("jhtpa-gradients", _jhtpa_gradients),
    ("algorithms-fixture", _algorithms_fixture),
    ("determinism", _determinism),
)


def run(rng: np.random.Generator) -> int:
    """Run every check, print one line each; exit code 0 when all pass, else 2."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok = fn(rng)
        except Exception as exc:  # a crashing check is a failing check
            print(f"FAIL {name} ({exc})")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 2
