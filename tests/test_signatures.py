"""signatures.compare on hand-built signature files, and the tool end to end
on one trial per set."""

import copy
import json
import os
import sys

import pytest

import signatures


def _signature(ee: float):
    # status, EE, tau, powers, trace, iterations, subsolver calls
    return ["converged", ee.hex(), (0.5).hex(), "00" * 16, [(ee / 2).hex(), ee.hex()], 1, 1]


def _trials():
    trial = {"jhtpa": _signature(3.0), "opa": _signature(2.0), "oht": _signature(1.0)}
    return {name: [copy.deepcopy(trial)] for name, _, _ in signatures.TRIAL_SETS}


def _compare(tmp_path, capsys, before, after):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(before))
    new.write_text(json.dumps(after))
    same = signatures.compare(old, new)
    lines = capsys.readouterr().out.splitlines()
    # workload, algorithm, identical, same path, same alloc, lower trace[-1], drift
    return same, {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}


def test_identical_files_compare_equal(tmp_path, capsys):
    same, table = _compare(tmp_path, capsys, _trials(), _trials())
    assert same
    assert len(table) == 3 * len(signatures.TRIAL_SETS)
    assert all(row == ["1/1", "1/1", "1/1", "0/1", "0"] for row in table.values())


def test_ee_drift_on_the_same_path_is_reported(tmp_path, capsys):
    after = _trials()
    after["dense_n30"][0]["jhtpa"] = _signature(3.0 * (1.0 - 1e-3))
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    identical, path, alloc, lower, drift = table[("dense_n30", "jhtpa")]
    assert (identical, path, alloc, lower) == ("0/1", "1/1", "1/1", "1/1")
    assert float(drift) == pytest.approx(1e-3, rel=1e-2)
    assert table[("dense_n30", "opa")] == ["1/1", "1/1", "1/1", "0/1", "0"]


def test_a_raise_on_one_side_is_infinite_drift(tmp_path, capsys):
    after = _trials()
    after["paper_sweep"][0]["opa"] = ["raised", "NoFeasiblePointFoundError", "no start"]
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    assert table[("paper_sweep", "opa")] == ["0/1", "0/1", "0/1", "1/1", "inf"]


def test_two_writes_from_one_checkout_compare_identical(tmp_path, capsys, monkeypatch):
    one_each = tuple((name, seed, 1) for name, seed, _ in signatures.TRIAL_SETS)
    monkeypatch.setattr(signatures, "TRIAL_SETS", one_each)
    first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    # write imports perfbench's harness, which pins BLAS threads through
    # os.environ and prepends src/ and perfbench/ to sys.path; keep both out
    # of the rest of the test run
    saved_env, saved_path = dict(os.environ), list(sys.path)
    try:
        assert signatures.main([first]) == 0
        assert signatures.main([second]) == 0
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path
    data = json.loads((tmp_path / "first.json").read_text())
    assert [len(data[name]) for name, _, _ in one_each] == [1, 1, 1]
    assert all(set(trials[0]) == {"jhtpa", "opa", "oht"} for trials in data.values())
    assert signatures.main([first, second]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 * len(one_each)
    assert all(row.split()[2] == "1/1" for row in rows)
