"""signatures.compare on hand-built signature files, and the tool end to end
on one trial per set and pair count."""

import copy
import dataclasses
import json
import os
import sys

import pytest

import uavee.algorithms as algorithms
import uavee.core as core
from uavee.engine import SolveStatus

import signatures


def _signature(ee: float):
    # status, EE, tau, powers, trace, iterations, subsolver calls
    return ["converged", ee.hex(), (0.5).hex(), "00" * 16, [(ee / 2).hex(), ee.hex()], 1, 1]


def _trials():
    trial = {"jhtpa": _signature(3.0), "opa": _signature(2.0), "oht": _signature(1.0)}
    return {name: [copy.deepcopy(trial)] for name, _, _ in signatures.TRIAL_SETS}


def _rows(tmp_path, capsys, before, after):
    """signatures.compare's result and the rows it printed, split into words."""
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(before))
    new.write_text(json.dumps(after))
    same = signatures.compare(old, new)
    lines = capsys.readouterr().out.splitlines()
    return same, [line.split() for line in lines[1:]]


def _compare(tmp_path, capsys, before, after):
    same, rows = _rows(tmp_path, capsys, before, after)
    # set, algorithm, identical, same path, same alloc, lower trace[-1],
    # drift, then Newton steps, Newton systems, rate calls, non-OPTIMAL
    # solves, first-solve steps, SINR calls and the stop-reason tallies,
    # each "old → new" or "n/a"
    table = {}
    for row in rows:
        if row[1] != "channels":
            table[tuple(row[:2])] = row[2:7] + _old_new_cells(row[7:])
    return same, table


def _compare_channels(tmp_path, capsys, before, after):
    """compare's result and, per set, its channels cell: "identical k/n" or "n/a"."""
    same, rows = _rows(tmp_path, capsys, before, after)
    return same, {row[0]: " ".join(row[2:]) for row in rows if row[1] == "channels"}


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
    assert all(row == ["1/1", "1/1", "1/1", "0/1", "0", *["n/a"] * 7] for row in table.values())


def test_channel_digests_compare_per_set(tmp_path, capsys):
    def with_channels(trials, dense_digest):
        digests = {name: ["0" * 64] for name in trials}
        digests["dense_n30"] = [dense_digest]
        return {**trials, "channels": digests}

    # files without digests read n/a and compare on the solves alone
    same, channels = _compare_channels(tmp_path, capsys, _trials(), _trials())
    assert same and channels == {name: "n/a" for name, _, _ in signatures.TRIAL_SETS}
    same, channels = _compare_channels(tmp_path, capsys, _trials(), with_channels(_trials(), "0" * 64))
    assert same and set(channels.values()) == {"n/a"}
    # one trial drew other channels: not the same, though every solve is
    same, channels = _compare_channels(
        tmp_path, capsys, with_channels(_trials(), "0" * 64), with_channels(_trials(), "1" * 64)
    )
    assert not same
    assert channels.pop("dense_n30") == "identical 0/1"
    assert set(channels.values()) == {"identical 1/1"}
    _, table = _compare(tmp_path, capsys, with_channels(_trials(), "0" * 64), with_channels(_trials(), "1" * 64))
    assert table[("dense_n30", "jhtpa")][:3] == ["1/1", "1/1", "1/1"]


def test_ee_drift_on_the_same_path_is_reported(tmp_path, capsys):
    after = _trials()
    after["dense_n30"][0]["jhtpa"] = _signature(3.0 * (1.0 - 1e-3))
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    identical, path, alloc, lower, drift, *_ = table[("dense_n30", "jhtpa")]
    assert (identical, path, alloc, lower) == ("0/1", "1/1", "1/1", "1/1")
    assert float(drift) == pytest.approx(1e-3, rel=1e-2)
    assert table[("dense_n30", "opa")] == ["1/1", "1/1", "1/1", "0/1", "0", *["n/a"] * 7]


def test_a_raise_on_one_side_is_infinite_drift(tmp_path, capsys):
    after = _trials()
    after["paper_sweep"][0]["opa"] = ["raised", "NoFeasiblePointFoundError", "no start"]
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    assert table[("paper_sweep", "opa")] == ["0/1", "0/1", "0/1", "1/1", "inf", *["n/a"] * 7]


def _with_steps(
    trials,
    jhtpa_steps,
    jhtpa_systems=None,
    oht_rate_calls=None,
    opa_non_optimal=None,
    opa_first_steps=None,
    jhtpa_sinr_calls=None,
):
    steps = {name: [{"jhtpa": jhtpa_steps, "opa": 10, "oht": 0}] for name in trials}
    if jhtpa_systems is None:
        return {**trials, "newton_steps": steps}
    systems = {name: [{"jhtpa": jhtpa_systems, "opa": 14, "oht": 0}] for name in trials}
    if oht_rate_calls is None:
        return {**trials, "newton_steps": steps, "newton_systems": systems}
    rates = {name: [{"jhtpa": 2, "opa": 1, "oht": oht_rate_calls}] for name in trials}
    if opa_non_optimal is None:
        return {**trials, "newton_steps": steps, "newton_systems": systems, "rate_calls": rates}
    non_optimal = {name: [{"jhtpa": 0, "opa": opa_non_optimal, "oht": 0}] for name in trials}
    counts = {"newton_steps": steps, "newton_systems": systems, "rate_calls": rates, "non_optimal": non_optimal}
    if opa_first_steps is None:
        return {**trials, **counts}
    first = {name: [{"jhtpa": jhtpa_steps, "opa": opa_first_steps, "oht": 0}] for name in trials}
    counts["first_solve_steps"] = first
    if jhtpa_sinr_calls is None:
        return {**trials, **counts}
    sinr = {name: [{"jhtpa": jhtpa_sinr_calls, "opa": 3, "oht": 0}] for name in trials}
    return {**trials, **counts, "sinr_calls": sinr}


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
    assert {tuple(row[5:8]) for key, row in table.items() if key[1] == "oht"} == {("0 → 0", "0 → 0", "5 → 1")}
    assert {row[7] for key, row in table.items() if key[1] == "jhtpa"} == {"2 → 2"}
    assert {row[7] for key, row in table.items() if key[1] == "opa"} == {"1 → 1"}
    # a file written before rate calls were recorded reads n/a in that column only
    for old, new in ((_with_steps(_trials(), 40, 48), after), (before, _with_steps(_trials(), 40, 48))):
        _, table = _compare(tmp_path, capsys, old, new)
        assert {tuple(row[5:8]) for key, row in table.items() if key[1] == "oht"} == {("0 → 0", "0 → 0", "n/a")}


def test_non_optimal_solve_totals_print_old_to_new_after_the_rate_calls(tmp_path, capsys):
    before, after = _with_steps(_trials(), 40, 48, 5, 0), _with_steps(_trials(), 40, 48, 5, 2)
    # two of opa's solves stopped short of OPTIMAL but every answer is the same
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {tuple(row[5:9]) for key, row in table.items() if key[1] == "opa"} == {
        ("10 → 10", "14 → 14", "1 → 1", "0 → 2")
    }
    assert {row[8] for key, row in table.items() if key[1] != "opa"} == {"0 → 0"}
    # a file written before the count was recorded reads n/a in that column only
    _, table = _compare(tmp_path, capsys, _with_steps(_trials(), 40, 48, 5), after)
    assert {tuple(row[5:9]) for key, row in table.items() if key[1] == "opa"} == {
        ("10 → 10", "14 → 14", "1 → 1", "n/a")
    }


def test_first_solve_step_totals_print_old_to_new_last(tmp_path, capsys):
    before, after = _with_steps(_trials(), 40, 48, 5, 0, 9), _with_steps(_trials(), 40, 48, 5, 0, 2)
    # opa's first solves took fewer steps but every answer is the same; the
    # last of the barrier's count columns, before the SINR calls
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {tuple(row[5:10]) for key, row in table.items() if key[1] == "opa"} == {
        ("10 → 10", "14 → 14", "1 → 1", "0 → 0", "9 → 2")
    }
    assert {row[9] for key, row in table.items() if key[1] == "jhtpa"} == {"40 → 40"}
    assert {row[9] for key, row in table.items() if key[1] == "oht"} == {"0 → 0"}
    # a file written before the count was recorded reads n/a in that column only
    _, table = _compare(tmp_path, capsys, _with_steps(_trials(), 40, 48, 5, 0), after)
    assert {tuple(row[5:10]) for key, row in table.items() if key[1] == "opa"} == {
        ("10 → 10", "14 → 14", "1 → 1", "0 → 0", "n/a")
    }


def test_sinr_call_totals_print_old_to_new_last(tmp_path, capsys):
    before = _with_steps(_trials(), 40, 48, 5, 0, 9, 30)
    after = _with_steps(_trials(), 40, 48, 5, 0, 9, 21)
    # jhtpa's runs evaluated fewer SINR vectors but every answer is the same;
    # the last count column, before the stop-reason tallies
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {tuple(row[5:11]) for key, row in table.items() if key[1] == "jhtpa"} == {
        ("40 → 40", "48 → 48", "2 → 2", "0 → 0", "40 → 40", "30 → 21")
    }
    assert {row[10] for key, row in table.items() if key[1] == "opa"} == {"3 → 3"}
    assert {row[10] for key, row in table.items() if key[1] == "oht"} == {"0 → 0"}
    # a file written before the count was recorded reads n/a in that column only
    _, table = _compare(tmp_path, capsys, _with_steps(_trials(), 40, 48, 5, 0, 9), after)
    assert {tuple(row[5:11]) for key, row in table.items() if key[1] == "jhtpa"} == {
        ("40 → 40", "48 → 48", "2 → 2", "0 → 0", "40 → 40", "n/a")
    }


def test_stop_reason_tallies_print_old_to_new_last(tmp_path, capsys):
    # three trials per set, with the same signatures; two of opa's runs
    # stop at kkt_certified instead
    before, after = ({name: trials * 3 for name, trials in _trials().items()} for _ in range(2))

    def reasons(opa):
        return {name: [{"jhtpa": "epsilon", "opa": r, "oht": "epsilon"} for r in opa] for name in before}

    before["stop_reasons"] = reasons(["epsilon", "boundary_fallback", "epsilon"])
    after["stop_reasons"] = reasons(["kkt_certified", "epsilon", "kkt_certified"])
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    assert {tuple(row[:5]) for row in table.values()} == {("3/3", "3/3", "3/3", "0/3", "0")}
    assert {row[11] for key, row in table.items() if key[1] == "opa"} == {
        "boundary_fallback:1,epsilon:2 → epsilon:1,kkt_certified:2"
    }
    assert {row[11] for key, row in table.items() if key[1] != "opa"} == {"epsilon:3 → epsilon:3"}
    # a file written before stop reasons were recorded reads n/a in that column
    del before["stop_reasons"]
    _, table = _compare(tmp_path, capsys, before, after)
    assert {tuple(row[5:]) for row in table.values()} == {("n/a",) * 7}


def test_a_set_missing_from_one_file_is_not_the_same(tmp_path, capsys):
    before = _trials()
    del before["extreme"]
    same, table = _compare(tmp_path, capsys, before, _trials())
    assert not same
    assert table[("extreme", "not")] == ["in", "both", "files"]
    assert table[("paper_sweep", "jhtpa")][:3] == ["1/1", "1/1", "1/1"]


def _write_isolated(argv):
    """signatures.main(argv) for a write. write imports perfbench's harness,
    which pins BLAS threads through os.environ and prepends src/ and
    perfbench/ to sys.path; keep both out of the rest of the test run."""
    saved_env, saved_path = dict(os.environ), list(sys.path)
    try:
        return signatures.main(argv)
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path


def _one_each(monkeypatch):
    """TRIAL_SETS cut to one trial per set and pair count; returns the
    number of trials each set then holds."""
    one_each = tuple((name, seed, 1) for name, seed, _ in signatures.TRIAL_SETS)
    monkeypatch.setattr(signatures, "TRIAL_SETS", one_each)
    baseline = signatures.BASELINE_SETS
    return {name: len(baseline[name][0]) if name in baseline else 1 for name, _, _ in one_each}


def test_two_writes_from_one_checkout_compare_identical(tmp_path, capsys, monkeypatch):
    sizes = _one_each(monkeypatch)
    # the Baseline sets hold one trial per pair count: Sample's 9, dense's 1
    # and r20's, r100's and extreme's 3
    assert [sizes[name] for name in signatures.BASELINE_SETS] == [9, 1, 3, 3, 3]
    first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
    real_rates = core.pinned_rates
    assert _write_isolated([first]) == 0
    assert _write_isolated([second]) == 0
    assert core.pinned_rates is real_rates  # write restores what it wraps
    data = json.loads((tmp_path / "first.json").read_text())
    steps, systems, rates = data.pop("newton_steps"), data.pop("newton_systems"), data.pop("rate_calls")
    non_optimal, first_steps = data.pop("non_optimal"), data.pop("first_solve_steps")
    sinr_calls, reasons = data.pop("sinr_calls"), data.pop("stop_reasons")
    channels = data.pop("channels")
    assert {name: len(trials) for name, trials in data.items()} == sizes
    # one sha256 digest per trial, and each trial of a set drew its own channels
    assert {name: len(set(digests)) for name, digests in channels.items()} == sizes
    assert all(len(digest) == 64 for digests in channels.values() for digest in digests)
    assert all(set(trial) == {"jhtpa", "opa", "oht"} for trials in data.values() for trial in trials)
    # one count per run; only jhtpa and opa call the barrier solver, and
    # a run that raised (feasibility_edge can) counts the solves it made
    assert {name: len(runs) for name, runs in steps.items()} == sizes
    for name in sizes:
        for k, signature in enumerate(data[name]):
            runs, solved, short = steps[name][k], systems[name][k], non_optimal[name][k]
            first_solve, reason, sinr = first_steps[name][k], reasons[name][k], sinr_calls[name][k]
            assert set(runs) == set(solved) == set(rates[name][k]) == set(short) == {"jhtpa", "opa", "oht"}
            assert set(first_solve) == set(reason) == set(sinr) == set(runs)
            # a run that returned has its report's stop reason; oht always
            # stops at epsilon, and a certified opa run solved nothing
            for alg, stop in reason.items():
                assert (stop == "raised") == (signature[alg][0] == "raised")
            assert reason["oht"] == "epsilon"
            certified = reason["opa"] == "kkt_certified"
            if certified:  # nor read the QoS floor, which the vertex meets by its definition
                assert runs["opa"] == solved["opa"] == rates[name][k]["opa"] == signature["opa"][-1] == 0
            assert runs["oht"] == solved["oht"] == short["oht"] == first_solve["oht"] == 0
            # oht evaluates full-harvest rates only; a certified opa run
            # scores its vertex once; every other returned run checks its
            # start and scores it, and each SCA step scores its solution
            assert sinr["oht"] == 0
            if certified:
                assert sinr["opa"] == 1
            for alg, stop in reason.items():
                if alg != "oht" and stop not in ("raised", "kkt_certified"):
                    assert sinr[alg] >= 2 + signature[alg][-1]
            # every other run reads the QoS floor or scores theta_fix before it can raise
            assert all(n >= 1 for alg, n in rates[name][k].items() if not (alg == "opa" and certified))
            for alg in ("jhtpa", "opa"):
                # a run's barrier solve scans for its first stage, but takes
                # no Newton step from a start central at its final stage
                # (opa's on feasibility_edge)
                assert solved[alg] > 0 or signature[alg][0] == "raised" or signature[alg][-1] == 0
                # every Newton step solves one system, and each solve's first
                # stage scan at least one more
                assert solved[alg] > runs[alg] or solved[alg] == runs[alg] == 0
                assert short[alg] >= 0
                # the first solve's steps are some of the run's, all of
                # them when the run made one SCA step and kept it
                assert 0 <= first_solve[alg] <= runs[alg]
                if signature[alg][0] != "raised" and signature[alg][-1] == 1:
                    assert first_solve[alg] == runs[alg]
    assert signatures.main([first, second]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    # the same checkout draws the same channels: one channels row per set
    assert [row for row in rows if row[1] == "channels"] == [
        [name, "channels", "identical", f"{n}/{n}"] for name, n in sizes.items()
    ]
    rows = [row for row in rows if row[1] != "channels"]
    assert len(rows) == 3 * len(sizes)
    assert all(row[2] == "1/1" or row[2] == f"{sizes[row[0]]}/{sizes[row[0]]}" for row in rows)
    # the same checkout repeats its counts: "k → k" in each of the six columns
    columns = (7, 10, 13, 16, 19, 22)
    for column, counts in zip(columns, (steps, systems, rates, non_optimal, first_steps, sinr_calls)):
        assert all(row[column] == row[column + 2] and row[column + 1] == "→" for row in rows)
        assert sum(int(row[column]) for row in rows) == sum(
            sum(run.values()) for runs in counts.values() for run in runs
        )
    # and its stop reasons: one tally per row, "t → t", counting each run once
    assert all(row[25] == row[27] and row[26] == "→" and len(row) == 28 for row in rows)
    for row in rows:
        tally = dict(cell.split(":") for cell in row[25].split(","))
        assert tally == {
            stop: str(sum(run[row[1]] == stop for run in reasons[row[0]])) for stop in tally
        }
        assert sum(map(int, tally.values())) == sizes[row[0]]


def test_non_optimal_counts_every_barrier_solve_short_of_optimal(tmp_path, monkeypatch):
    # every barrier solve reports MAX_ITERATIONS: each one counts, as many
    # as the solver was called, and no answer moves off the signature's path.
    # The first solve from the central start then gives way to the uniform
    # start, and the first-solve steps count both of those solves' steps.
    # opa certifies its vertex on this trial without a solve, so the
    # certificate is off and opa's SCA solves as jhtpa's does.
    monkeypatch.setattr(signatures, "TRIAL_SETS", (("paper_sweep", 501, 1),))
    monkeypatch.setattr(algorithms, "_kkt_certified", lambda *args: False)
    calls = {"solves": 0, "first_solves": 0, "first_steps": 0}
    real, real_from, in_first = algorithms.solve, algorithms._solve_from, []

    def short_of_optimal(prog, z0):
        outcome = real(prog, z0)
        calls["solves"] += 1
        if in_first:
            calls["first_solves"] += 1
            calls["first_steps"] += outcome.newton_step_count
        return dataclasses.replace(outcome, status=SolveStatus.MAX_ITERATIONS)

    def solve_from(prog, warm, z0):
        in_first[:] = [True] if warm else []
        try:
            return real_from(prog, warm, z0)
        finally:
            in_first.clear()

    monkeypatch.setattr(algorithms, "solve", short_of_optimal)
    monkeypatch.setattr(algorithms, "_solve_from", solve_from)
    out = str(tmp_path / "short.json")
    assert _write_isolated([out]) == 0
    assert algorithms.solve is short_of_optimal  # write restores what it wraps
    assert algorithms._solve_from is solve_from
    data = json.loads((tmp_path / "short.json").read_text())
    counts, first = data["non_optimal"]["paper_sweep"][0], data["first_solve_steps"]["paper_sweep"][0]
    assert calls["solves"] > 0
    assert counts["jhtpa"] + counts["opa"] == calls["solves"] and counts["oht"] == 0
    # jhtpa's and opa's first solves each tried the central, then the uniform start
    assert calls["first_solves"] == 4
    assert first["jhtpa"] + first["opa"] == calls["first_steps"] > 0 and first["oht"] == 0
