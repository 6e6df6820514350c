"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ftakit as fk  # noqa: E402
from ftakit import experiment  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NO_GOLDEN = {"seed": 0, "digests": {}}


def tiny_sweep():
    return workloads.sweep(n=3, steps=4, trials=2)


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def printed_units(out: str) -> dict:
    units = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            units[parts[0]] = parts[2]
    return units


def test_untraced_run_prints_every_end_to_end_metric_with_unit(capsys):
    tally = run.Tally("sweep-a3", 1, NO_GOLDEN)
    metrics = run.measure(tiny_sweep(), 1, 0.01, tally, setup_runs=1)
    run.report(tally, metrics)
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = printed_units(out)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert units[m["name"]] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert units["error_rate"] == "ratio"


def test_traced_run_prints_every_per_layer_metric_and_keeps_digests(capsys, tmp_path):
    tally = run.Tally("sweep-a3", 1, NO_GOLDEN)
    metrics = run.measure_traced(tiny_sweep(), 1, tally, tmp_path / "spans.jsonl")
    run.report(tally, metrics)
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"], out
    units = printed_units(out)
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert units[m["name"]] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "per grid point" in out
    assert (tmp_path / "spans.jsonl").read_text().count("\n") > 0


def test_layer_times_account_for_root_spans():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        workloads.oracle(cases=2, height=2).run_round(1, 0)
        workloads.peak(n=3, steps=6, xs=range(2, 4)).run_round(1, 1)
    metrics = spans.layer_metrics(tracer.spans)
    layers = sum(v for name, (v, _) in metrics.items()
                 if name.endswith("busy_s") or name == "experiment.self_s")
    roots = sum(s.seconds for s in tracer.spans if s.parent is None)
    assert abs(layers - roots) < 1e-9
    assert metrics["core.language_fingerprint.calls"][0] == 6
    assert metrics["experiment.points"][0] == 1
    assert experiment.run_point is fk.run_point, "wrappers stay installed"


def test_trees_up_to_counts_enumerated_trees():
    for setting in fk.Setting:
        for height in range(4):
            assert spans._trees_up_to(setting.alphabet, height) == len(
                fk.enumerate_trees(setting.alphabet, height))


def test_corrupted_output_fails_digest_check_and_counts_as_error(capsys):
    honest = tiny_sweep()
    first = honest.run_round(1, 0)
    golden = {"seed": 1, "digests": {honest.name: [first.digest]}}

    def corrupted(seed, k):
        result = honest.run_round(seed, k)
        return dataclasses.replace(result, output=result.output.replace("A", "B", 1))

    tally = run.Tally(honest.name, 1, golden)
    tally.round(dataclasses.replace(honest, run_round=corrupted), 1, 0)
    assert tally.attempted == first.ops and tally.failed == first.ops
    run.report(tally, {})
    result = last_json(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == first.ops

    clean = run.Tally(honest.name, 1, golden)
    clean.round(honest, 1, 0)
    assert clean.failed == 0


def test_broken_invariant_counts_as_error():
    record = fk.run_point(fk.Setting.A, 3, 0.3, 2, 1, x=0)
    assert workloads._sweep_invariants([record]) == 0
    bad = dataclasses.replace(record, canonical_sizes=(9,) + record.canonical_sizes[1:])
    assert workloads._sweep_invariants([bad]) == 1


def test_every_workload_runs_clean_at_tiny_size():
    for workload in (tiny_sweep(), workloads.peak(n=3, steps=6, xs=range(2, 5)),
                     workloads.trim(trials=20, densities=(0.5,), n_values=(2, 3)),
                     workloads.oracle(cases=2, height=2)):
        result = workload.run_round(3, 0)
        assert result.ops >= 1 and result.failed == 0 and result.work > 0


def test_workload_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
