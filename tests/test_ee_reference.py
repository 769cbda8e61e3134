"""Per-trial energy efficiency against a committed reference.

tests/data/ee_reference.json holds the EE (nats/J) of jhtpa, opa and oht on
40 fixed trials drawn as `uavee run` draws them (bench.run_trial, base seed
1): four per N = 2-10 and four at N = 30. oht must reproduce its EE bit for
bit, jhtpa and opa to 1e-6 relative.

A change that moves an EE beyond its gate either is wrong or changes the
answer on purpose. In the second case regenerate the file with

    PYTHONPATH=src python tests/test_ee_reference.py

and only together with a per-trial drift table in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from uavee import ScenarioConfig
from uavee.algorithms import ALGORITHM_NAMES
from uavee.bench import run_trial

REFERENCE = Path(__file__).parent / "data" / "ee_reference.json"
BASE = ScenarioConfig(num_pairs=2, seed=1)  # run_trial sets num_pairs
TRIALS = [(n, k) for n in (*range(2, 11), 30) for k in range(4)]
REL_TOL = {"jhtpa": 1e-6, "opa": 1e-6, "oht": 0.0}


def trial_ee(n_pairs, trial):
    rows = run_trial(BASE, n_pairs, trial, ALGORITHM_NAMES, None)
    return {"n_pairs": n_pairs, "trial": trial, **{r.algorithm: r.ee_nats_per_joule for r in rows}}


@pytest.mark.parametrize("n_pairs, trial", TRIALS)
def test_ee_matches_reference(n_pairs, trial):
    reference = {(r["n_pairs"], r["trial"]): r for r in json.loads(REFERENCE.read_text())}
    expected = reference[n_pairs, trial]
    got = trial_ee(n_pairs, trial)
    for name in ALGORITHM_NAMES:
        assert abs(got[name] - expected[name]) <= REL_TOL[name] * abs(expected[name]), name


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps([trial_ee(n, k) for n, k in TRIALS], indent=1) + "\n")
