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


ALGORITHMS = ("jhtpa", "opa", "oht")
# the stop reasons and every COUNTS column of a row whose files hold none
NONE_COUNTED = ["n/a"] * (len(signatures.COUNTS) + 1)


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
    # drift, then each COUNTS column and the stop-reason tallies, each
    # "old → new" or "n/a"
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
    assert all(row == ["1/1", "1/1", "1/1", "0/1", "0", *NONE_COUNTED] for row in table.values())


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
    assert table[("dense_n30", "opa")] == ["1/1", "1/1", "1/1", "0/1", "0", *NONE_COUNTED]


def test_a_raise_on_one_side_is_infinite_drift(tmp_path, capsys):
    after = _trials()
    after["paper_sweep"][0]["opa"] = ["raised", "NoFeasiblePointFoundError", "no start"]
    same, table = _compare(tmp_path, capsys, _trials(), after)
    assert not same
    assert table[("paper_sweep", "opa")] == ["0/1", "0/1", "0/1", "1/1", "inf", *NONE_COUNTED]


def _count(column, alg):
    """The count of alg's one run in column column of a _with_counts file."""
    return 10 * column + ALGORITHMS.index(alg) + 1


def _with_counts(trials, **changed):
    """trials with one run per algorithm under each COUNTS key, counting
    _count(column, alg) unless changed[key] gives {alg: count}."""
    counts = {}
    for column, key in enumerate(signatures.COUNTS):
        run = {alg: _count(column, alg) for alg in ALGORITHMS} | changed.get(key, {})
        counts[key] = {name: [run] for name in trials}
    return {**trials, **counts}


@pytest.mark.parametrize("alg", ALGORITHMS)
@pytest.mark.parametrize(("column", "key"), enumerate(signatures.COUNTS))
def test_count_totals_print_old_to_new_in_their_column(tmp_path, capsys, column, key, alg):
    old = _count(column, alg)
    before, after = _with_counts(_trials()), _with_counts(_trials(), **{key: {alg: old + 1}})

    def check(table, cells):
        # each count column reads "k → k", but column reads cells[algorithm] where given
        for (_, row_alg), row in table.items():
            totals = [f"{_count(c, row_alg)} → {_count(c, row_alg)}" for c in range(len(signatures.COUNTS))]
            totals[column] = cells.get(row_alg, totals[column])
            assert row[5:] == [*totals, "n/a"]

    def without(data):
        return {k: v for k, v in data.items() if k != key}

    # one of alg's counts moved but every answer is the same: still identical
    same, table = _compare(tmp_path, capsys, before, after)
    assert same
    check(table, {alg: f"{old} → {old + 1}"})
    # a file written before the count was recorded reads n/a in that column
    # only, on either side
    for files in ((without(before), after), (before, without(after))):
        check(_compare(tmp_path, capsys, *files)[1], dict.fromkeys(ALGORITHMS, "n/a"))


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
    assert {row[-1] for key, row in table.items() if key[1] == "opa"} == {
        "boundary_fallback:1,epsilon:2 → epsilon:1,kkt_certified:2"
    }
    assert {row[-1] for key, row in table.items() if key[1] != "opa"} == {"epsilon:3 → epsilon:3"}
    # a file written before stop reasons were recorded reads n/a in that column
    del before["stop_reasons"]
    _, table = _compare(tmp_path, capsys, before, after)
    assert {tuple(row[5:]) for row in table.values()} == {tuple(NONE_COUNTED)}


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
    counts = {key: data.pop(key) for key in signatures.COUNTS}
    reasons, channels = data.pop("stop_reasons"), data.pop("channels")
    assert {name: len(trials) for name, trials in data.items()} == sizes
    # one sha256 digest per trial, and each trial of a set drew its own channels
    assert {name: len(set(digests)) for name, digests in channels.items()} == sizes
    assert all(len(digest) == 64 for digests in channels.values() for digest in digests)
    assert all(set(trial) == {"jhtpa", "opa", "oht"} for trials in data.values() for trial in trials)
    # one count per run; only jhtpa and opa call the barrier solver, and
    # a run that raised (feasibility_edge can) counts the solves it made
    for by_set in (*counts.values(), reasons):
        assert {name: len(runs) for name, runs in by_set.items()} == sizes
        assert all(set(run) == {"jhtpa", "opa", "oht"} for runs in by_set.values() for run in runs)
    for name in sizes:
        for k, signature in enumerate(data[name]):
            count = {key: by_set[name][k] for key, by_set in counts.items()}
            runs, solved, rates = count["newton_steps"], count["newton_systems"], count["rate_calls"]
            short, first_solve, sinr = count["non_optimal"], count["first_solve_steps"], count["sinr_calls"]
            reason = reasons[name][k]
            # a run that returned has its report's stop reason; oht always
            # stops at epsilon, and a certified opa run solved nothing
            for alg, stop in reason.items():
                assert (stop == "raised") == (signature[alg][0] == "raised")
            assert reason["oht"] == "epsilon"
            certified = reason["opa"] == "kkt_certified"
            if certified:  # nor read the QoS floor, which the vertex meets by its definition
                assert runs["opa"] == solved["opa"] == rates["opa"] == signature["opa"][-1] == 0
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
            assert all(n >= 1 for alg, n in rates.items() if not (alg == "opa" and certified))
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
    # the same checkout repeats its counts: "k → k" in each COUNTS column
    # and its stop reasons: one tally per row, "t → t", counting each run once
    for row in rows:
        cells = [cell.split() for cell in _old_new_cells(row[7:])]
        assert len(cells) == len(signatures.COUNTS) + 1
        assert all(arrow == "→" and old == new for old, arrow, new in cells)
        *totals, (tallies, _, _) = cells
        for (total, _, _), by_set in zip(totals, counts.values()):
            assert int(total) == sum(run[row[1]] for run in by_set[row[0]])
        tally = dict(cell.split(":") for cell in tallies.split(","))
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
