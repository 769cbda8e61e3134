"""Per-trial energy efficiency against a committed reference.

tests/data/ee_reference.json holds the EE (nats/J) of jhtpa, opa and oht on
40 fixed trials drawn as `uavee run` draws them (bench.run_trial, base seed
1): four per N = 2-10 and four at N = 30. oht must reproduce its EE bit for
bit, jhtpa and opa to 1e-6 relative.

A change that moves an EE beyond its gate either is wrong or changes the
answer on purpose. In the second case regenerate the file with

    PYTHONPATH=src python tests/test_ee_reference.py [ALG ...]

which rewrites the named algorithms' values (all three when none is named),
leaves the others byte-identical, and prints the per-trial drift table that
CHANGES.md then carries: one row per trial with each rewritten algorithm's
relative change from the old reference value to the new one.
"""

import json
import sys
from pathlib import Path

import pytest

from uavee import ScenarioConfig
from uavee.algorithms import ALGORITHM_NAMES
from uavee.bench import run_trial

REFERENCE = Path(__file__).parent / "data" / "ee_reference.json"
BASE = ScenarioConfig(num_pairs=2, seed=1)  # run_trial sets num_pairs
TRIALS = [(n, k) for n in (*range(2, 11), 30) for k in range(4)]
REL_TOL = {"jhtpa": 1e-6, "opa": 1e-6, "oht": 0.0}


def trial_ee(n_pairs, trial, names=ALGORITHM_NAMES):
    rows = run_trial(BASE, n_pairs, trial, names, None)
    return {"n_pairs": n_pairs, "trial": trial, **{r.algorithm: r.ee_nats_per_joule for r in rows}}


@pytest.mark.parametrize("n_pairs, trial", TRIALS)
def test_ee_matches_reference(n_pairs, trial):
    reference = {(r["n_pairs"], r["trial"]): r for r in json.loads(REFERENCE.read_text())}
    expected = reference[n_pairs, trial]
    got = trial_ee(n_pairs, trial)
    for name in ALGORITHM_NAMES:
        assert abs(got[name] - expected[name]) <= REL_TOL[name] * abs(expected[name]), name


def drift(old, new):
    """Relative change from old to new, or both values when either is missing or zero."""
    if old is None or new is None or old == 0.0:
        return f"{old} -> {new}"
    return f"{(new - old) / abs(old):+.2e}"


def regenerate(names):
    """Rewrite the names' values in the reference; print their drift table."""
    unknown = set(names) - set(ALGORITHM_NAMES)
    if unknown:
        raise SystemExit(f"unknown algorithms {sorted(unknown)}; expected {ALGORITHM_NAMES}")
    before = {(r["n_pairs"], r["trial"]): r for r in json.loads(REFERENCE.read_text())}
    rows = []
    print("n_pairs trial", *(f"{name:>10}" for name in names))
    for n, k in TRIALS:
        old = before.get((n, k), {"n_pairs": n, "trial": k})
        row = {**old, **trial_ee(n, k, names)}
        cells = (drift(old.get(name), row[name]) for name in names)
        print(f"{n:7d} {k:5d}", *(f"{cell:>10}" for cell in cells))
        rows.append(row)
    REFERENCE.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    regenerate(tuple(sys.argv[1:]) or ALGORITHM_NAMES)
