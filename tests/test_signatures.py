"""signatures.compare on hand-built signature files, and the tool end to end
on one trial per set."""

import copy
import json
import os
import sys

import pytest

import uavee.core as core

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
    # workload, algorithm, identical, same path, same alloc, lower trace[-1],
    # drift, then Newton steps, Newton systems and rate calls, each
    # "old → new" or "n/a"
    table = {}
    for row in (line.split() for line in lines[1:]):
        table[tuple(row[:2])] = row[2:7] + _old_new_cells(row[7:])
    return same, table


def _old_new_cells(tokens):
    """The "old → new" or "n/a" cells that end a comparison row."""
    cells = []
    while tokens:
        width = 1 if tokens[0] == "n/a" else 3
        cells.append(" ".join(tokens[:width]))
        tokens = tokens[width:]
    return cells


def test_identical_files_compare_equal(tmp_path, capsys):
    same, table = _compare(tmp_path, capsys, _trials(), _trials())
    assert same
    assert len(table) == 3 * len(signatures.TRIAL_SETS)
    assert all(row == ["1/1", "1/1", "1/1", "0/1", "0", "n/a", "n/a", "n/a"] for row in table.values())


def test_ee_drift_on_the_same_path_is_reported(tmp_path, capsys):
    after = _trials()
    after["dense_n30"][0]["jhtpa"] = _signature(3.0 * (1.0 - 1e-3))
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    identical, path, alloc, lower, drift, _, _, _ = table[("dense_n30", "jhtpa")]
    assert (identical, path, alloc, lower) == ("0/1", "1/1", "1/1", "1/1")
    assert float(drift) == pytest.approx(1e-3, rel=1e-2)
    assert table[("dense_n30", "opa")] == ["1/1", "1/1", "1/1", "0/1", "0", "n/a", "n/a", "n/a"]


def test_a_raise_on_one_side_is_infinite_drift(tmp_path, capsys):
    after = _trials()
    after["paper_sweep"][0]["opa"] = ["raised", "NoFeasiblePointFoundError", "no start"]
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    assert table[("paper_sweep", "opa")] == ["0/1", "0/1", "0/1", "1/1", "inf", "n/a", "n/a", "n/a"]


def _with_steps(trials, jhtpa_steps, jhtpa_systems=None, oht_rate_calls=None):
    steps = {name: [{"jhtpa": jhtpa_steps, "opa": 10, "oht": 0}] for name in trials}
    if jhtpa_systems is None:
        return {**trials, "newton_steps": steps}
    systems = {name: [{"jhtpa": jhtpa_systems, "opa": 14, "oht": 0}] for name in trials}
    if oht_rate_calls is None:
        return {**trials, "newton_steps": steps, "newton_systems": systems}
    rates = {name: [{"jhtpa": 2, "opa": 1, "oht": oht_rate_calls}] for name in trials}
    return {**trials, "newton_steps": steps, "newton_systems": systems, "rate_calls": rates}


def test_newton_step_totals_print_old_to_new(tmp_path, capsys):
    before, after = _with_steps(_trials(), 40), _with_steps(_trials(), 30)
    # the steps moved but every answer is the same: still identical
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {row[5] for key, row in table.items() if key[1] == "jhtpa"} == {"40 → 30"}
    assert {row[5] for key, row in table.items() if key[1] == "opa"} == {"10 → 10"}
    assert {row[5] for key, row in table.items() if key[1] == "oht"} == {"0 → 0"}
    # a file written before steps were recorded reads n/a on either side
    for old, new in ((_trials(), after), (before, _trials())):
        _, table = _compare(tmp_path, capsys, old, new)
        assert {row[5] for row in table.values()} == {"n/a"}


def test_newton_system_totals_print_old_to_new_beside_the_steps(tmp_path, capsys):
    before, after = _with_steps(_trials(), 40, 55), _with_steps(_trials(), 40, 48)
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {tuple(row[5:7]) for key, row in table.items() if key[1] == "jhtpa"} == {("40 → 40", "55 → 48")}
    assert {tuple(row[5:7]) for key, row in table.items() if key[1] == "opa"} == {("10 → 10", "14 → 14")}
    assert {tuple(row[5:7]) for key, row in table.items() if key[1] == "oht"} == {("0 → 0", "0 → 0")}
    # a file with steps but no systems reads n/a in the systems column only
    _, table = _compare(tmp_path, capsys, _with_steps(_trials(), 40), after)
    assert {tuple(row[5:7]) for key, row in table.items() if key[1] == "jhtpa"} == {("40 → 40", "n/a")}


def test_rate_call_totals_print_old_to_new_after_the_systems(tmp_path, capsys):
    before, after = _with_steps(_trials(), 40, 48, 5), _with_steps(_trials(), 40, 48, 1)
    # oht's search made fewer rate calls but every answer is the same
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {tuple(row[5:]) for key, row in table.items() if key[1] == "oht"} == {("0 → 0", "0 → 0", "5 → 1")}
    assert {row[7] for key, row in table.items() if key[1] == "jhtpa"} == {"2 → 2"}
    assert {row[7] for key, row in table.items() if key[1] == "opa"} == {"1 → 1"}
    # a file written before rate calls were recorded reads n/a in that column only
    for old, new in ((_with_steps(_trials(), 40, 48), after), (before, _with_steps(_trials(), 40, 48))):
        _, table = _compare(tmp_path, capsys, old, new)
        assert {tuple(row[5:]) for key, row in table.items() if key[1] == "oht"} == {("0 → 0", "0 → 0", "n/a")}


def test_two_writes_from_one_checkout_compare_identical(tmp_path, capsys, monkeypatch):
    one_each = tuple((name, seed, 1) for name, seed, _ in signatures.TRIAL_SETS)
    monkeypatch.setattr(signatures, "TRIAL_SETS", one_each)
    first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    # write imports perfbench's harness, which pins BLAS threads through
    # os.environ and prepends src/ and perfbench/ to sys.path; keep both out
    # of the rest of the test run
    saved_env, saved_path = dict(os.environ), list(sys.path)
    real_rates = core.pinned_rates
    try:
        assert signatures.main([first]) == 0
        assert signatures.main([second]) == 0
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path
    assert core.pinned_rates is real_rates  # write restores what it wraps
    data = json.loads((tmp_path / "first.json").read_text())
    steps, systems, rates = data.pop("newton_steps"), data.pop("newton_systems"), data.pop("rate_calls")
    assert [len(data[name]) for name, _, _ in one_each] == [1, 1, 1]
    assert all(set(trials[0]) == {"jhtpa", "opa", "oht"} for trials in data.values())
    # one count per run; only jhtpa and opa call the barrier solver, and
    # a run that raised (feasibility_edge can) counts the solves it made
    assert [len(steps[name]) for name, _, _ in one_each] == [1, 1, 1]
    for name, _, _ in one_each:
        runs, solved, signature = steps[name][0], systems[name][0], data[name][0]
        assert set(runs) == set(solved) == set(rates[name][0]) == {"jhtpa", "opa", "oht"}
        assert runs["oht"] == solved["oht"] == 0
        # every run reads the QoS floor or scores theta_fix before it can raise
        assert all(k >= 1 for k in rates[name][0].values())
        for alg in ("jhtpa", "opa"):
            assert runs[alg] > 0 or signature[alg][0] == "raised" or signature[alg][-1] == 0
            # every Newton step solves one system, and each solve's first
            # stage scan at least one more
            assert solved[alg] > runs[alg] or solved[alg] == runs[alg] == 0
    assert signatures.main([first, second]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 3 * len(one_each)
    assert all(row[2] == "1/1" for row in rows)
    # the same checkout repeats its step, system and rate-call counts: "k → k"
    assert all(row[7] == row[9] and row[8] == "→" for row in rows)
    assert all(row[10] == row[12] and row[11] == "→" for row in rows)
    assert all(row[13] == row[15] and row[14] == "→" for row in rows)
    assert sum(int(row[7]) for row in rows) == sum(sum(runs[0].values()) for runs in steps.values())
    assert sum(int(row[10]) for row in rows) == sum(sum(runs[0].values()) for runs in systems.values())
    assert sum(int(row[13]) for row in rows) == sum(sum(runs[0].values()) for runs in rates.values())
