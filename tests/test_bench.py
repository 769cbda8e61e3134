import csv
import json

import pytest

from uavee import NoFeasiblePointFoundError, ScenarioConfig, make_scenario, run_algorithm
from uavee.bench import (
    CSV_HEADER,
    ExperimentSpec,
    ResultRow,
    derive_child_seed,
    run_experiment,
    run_trial,
    summarize,
    write_csv,
    write_json,
)


def small_spec(**kw):
    kw.setdefault("base_config", ScenarioConfig(num_pairs=2, seed=7))
    kw.setdefault("pair_counts", (2,))
    kw.setdefault("trials_per_point", 1)
    return ExperimentSpec(**kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials_per_point=0)
    with pytest.raises(ValueError):
        small_spec(pair_counts=())
    with pytest.raises(ValueError):
        small_spec(pair_counts=(0,))
    with pytest.raises(ValueError):
        small_spec(algorithms=("genie",))
    with pytest.raises(ValueError):
        small_spec(algorithms=())


def test_spec_rejects_repeated_pair_counts():
    # run_experiment would run each repeated (N, trial) or algorithm twice on
    # one child seed
    repeats = ({"pair_counts": (2, 2)}, {"pair_counts": (2, 3, 2)}, {"algorithms": ("jhtpa", "jhtpa")})
    for repeated in repeats:
        with pytest.raises(ValueError, match="repeats"):
            small_spec(**repeated)


def test_child_seed_stable():
    # frozen values: the derivation must never change across releases
    assert derive_child_seed(7, 2, 0) == derive_child_seed(7, 2, 0)
    assert derive_child_seed(7, 2, 0) != derive_child_seed(7, 2, 1)
    assert derive_child_seed(7, 2, 0) != derive_child_seed(7, 3, 0)
    assert derive_child_seed(7, 2, 0) != derive_child_seed(8, 2, 0)
    known = [
        derive_child_seed(0, 2, 0),
        derive_child_seed(1, 5, 3),
        derive_child_seed(123456789, 10, 99),
    ]
    assert known == [
        17195319236771816063,
        17584431576607206822,
        9505440703982204091,
    ]


def test_child_seed_is_not_wrapped_to_64_bits():
    # base seed 2^64 once drew exactly the trials of base seed 0; seeds
    # below 2^64 keep their child seeds
    assert derive_child_seed(2**64, 2, 0) != derive_child_seed(0, 2, 0)
    assert derive_child_seed(2**64 - 1, 2, 0) == 12859645445789163360


def test_single_trial_shape():
    rows = run_trial(
        ScenarioConfig(num_pairs=2, seed=7), 2, 0, ("jhtpa", "opa", "oht"), None
    )
    assert len(rows) == 3
    assert [r.algorithm for r in rows] == ["jhtpa", "opa", "oht"]
    assert len({(r.n_pairs, r.trial, r.seed) for r in rows}) == 1
    for r in rows:
        assert r.status == "converged"
        assert r.wall_time_ms > 0.0
        assert r.ee_nats_per_joule > 0.0


def test_underflowing_uav_gains_are_infeasible_for_every_algorithm():
    # at a 1e200 m UAV height every UAV gain underflows to 0, so no pair can
    # harvest: each algorithm raises, without a RuntimeWarning on the way
    config = ScenarioConfig(num_pairs=3, seed=1, uav_height_m=1e200)
    ch = make_scenario(config)[1]
    assert not ch.g.any()
    for name in ("jhtpa", "opa", "oht"):
        with pytest.raises(NoFeasiblePointFoundError):
            run_algorithm(name, ch, config)
    rows = run_trial(config, 3, 0, ("jhtpa", "opa", "oht"), None)
    assert [r.status for r in rows] == ["infeasible"] * 3


def test_experiment_deterministic_math():
    spec = small_spec(trials_per_point=2)
    rows_a, _ = run_experiment(spec)
    rows_b, _ = run_experiment(spec)
    assert [r.ee_nats_per_joule for r in rows_a] == [r.ee_nats_per_joule for r in rows_b]
    assert [r.seed for r in rows_a] == [r.seed for r in rows_b]


def test_experiment_parallel_matches_serial():
    spec = small_spec(trials_per_point=3, pair_counts=(2, 3))
    serial, _ = run_experiment(spec, jobs=1)
    parallel, _ = run_experiment(spec, jobs=2)
    assert [(r.n_pairs, r.trial, r.algorithm, r.ee_nats_per_joule) for r in serial] == [
        (r.n_pairs, r.trial, r.algorithm, r.ee_nats_per_joule) for r in parallel
    ]


def test_csv_output(tmp_path):
    path = tmp_path / "rows.csv"
    rows, _ = run_experiment(small_spec())
    write_csv(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + len(rows) == 4
    parsed = list(csv.DictReader(text))
    assert float(parsed[0]["ee_nats_per_joule"]) == rows[0].ee_nats_per_joule


def test_json_output(tmp_path):
    path = tmp_path / "rows.json"
    rows, summary = run_experiment(small_spec())
    write_json(rows, summary, str(path))
    payload = json.loads(path.read_text())
    assert len(payload["rows"]) == len(rows)
    assert payload["summary"] == summary


def test_json_rows_carry_stop_reason(tmp_path):
    import dataclasses

    import uavee.bench as bench

    path = tmp_path / "rows.json"
    rows, summary = run_experiment(small_spec())
    write_json(rows, summary, str(path))
    payload = json.loads(path.read_text())
    assert [r["stop_reason"] for r in payload["rows"]] == ["epsilon"] * 3
    assert [r.stop_reason for r in rows] == ["epsilon"] * 3

    # the CSV carries no stop_reason column
    bench.write_csv(rows, str(tmp_path / "with.csv"))
    bench.write_csv(
        [dataclasses.replace(r, stop_reason=None) for r in rows], str(tmp_path / "without.csv")
    )
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()


def test_summarize_counts_statuses():
    rows = [
        ResultRow(2, "jhtpa", 0, 1, 0.5, 0.7, 10.0, 3, "converged"),
        ResultRow(2, "jhtpa", 1, 2, 0.7, 1.0, 12.0, 4, "converged"),
        ResultRow(2, "jhtpa", 2, 3, None, None, None, None, "infeasible"),
        ResultRow(2, "jhtpa", 3, 4, None, None, None, None, "failed"),
    ]
    (summary,) = summarize(rows)
    assert summary["n_trials"] == 4
    assert summary["n_converged"] == 2
    assert summary["n_infeasible"] == 1
    assert summary["n_failed"] == 1
    assert summary["mean_ee_nats_per_joule"] == pytest.approx(0.6)
    assert summary["median_wall_time_ms"] == pytest.approx(11.0)


def test_rows_sorted_and_paired():
    spec = small_spec(pair_counts=(3, 2), trials_per_point=2)
    rows, _ = run_experiment(spec)
    keys = [(r.n_pairs, r.trial, r.algorithm) for r in rows]
    order = {"jhtpa": 0, "opa": 1, "oht": 2}
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], order[k[2]]))
    # all algorithms inside a trial share the realization seed
    for n in (2, 3):
        for trial in (0, 1):
            seeds = {r.seed for r in rows if r.n_pairs == n and r.trial == trial}
            assert len(seeds) == 1


@pytest.mark.parametrize(
    ("exc", "status", "error"),
    [
        (ValueError("boom"), "failed", "ValueError: boom"),
        (NoFeasiblePointFoundError("no start"), "infeasible", None),
    ],
    ids=["failed", "infeasible"],
)
def test_failed_row_records_exception(monkeypatch, tmp_path, exc, status, error):
    import dataclasses

    import uavee.bench as bench

    real = bench.run_algorithm

    def raising(name, *args, **kwargs):
        if name == "opa":
            raise exc
        return real(name, *args, **kwargs)

    monkeypatch.setattr(bench, "run_algorithm", raising)
    rows, summary = run_experiment(small_spec())
    write_json(rows, summary, str(tmp_path / "rows.json"))
    by_alg = {r.algorithm: r for r in rows}
    assert by_alg["opa"].status == status
    assert by_alg["opa"].error == error and by_alg["opa"].stop_reason is None
    assert by_alg["jhtpa"].status == "converged" and by_alg["jhtpa"].error is None
    payload = json.loads((tmp_path / "rows.json").read_text())
    assert [r["error"] for r in payload["rows"]] == [None, error, None]
    (opa_summary,) = (s for s in summary if s["algorithm"] == "opa")
    assert opa_summary[f"n_{status}"] == 1 and opa_summary["n_converged"] == 0

    # the CSV carries no error column: same bytes as the rows without it
    bench.write_csv(rows, str(tmp_path / "with.csv"))
    bench.write_csv([dataclasses.replace(r, error=None) for r in rows], str(tmp_path / "without.csv"))
    text = (tmp_path / "with.csv").read_bytes()
    assert text == (tmp_path / "without.csv").read_bytes()
    assert text.splitlines()[0].decode() == CSV_HEADER
    # a row with no result leaves its result cells empty
    opa_row = list(csv.DictReader(text.decode().splitlines()))[1]
    assert opa_row["algorithm"] == "opa" and opa_row["status"] == status
    assert [opa_row[k] for k in ("ee_nats_per_joule", "ee_bits_per_joule", "wall_time_ms", "iterations")] == [""] * 4
