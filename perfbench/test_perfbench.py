"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import jobs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
LC = run.import_latcirc()

# A few cheap jobs per workload: every job kind that finishes in well under
# a second on its own.
TINY = {
    "oracle": ["gate-oracle plain n=8", "gate-oracle dagger n=8", "gate-oracle probes n=8"],
    "lattice": [
        "verify-lattice l4_b2 full", "filters l5_n5 as-lattice",
        "verify-lattice l4_b2 minimal", "verify-lattice lat00_6 full",
        "filters lat00_6 as-lattice", "corpus up to 5",
    ],
    "truncation": [
        "tower exact-pair n=200 limit", "filters msl16 include-empty as-lattice",
        "y0 msl16 k=6", "solder Y ysl8 k=8", "build W base10",
        "directed system forward stages=6 n=2",
    ],
}


def tiny_workload(name: str, seed: int, workdir: Path):
    inp, wl = run.setup(LC, name, seed, workdir)
    wl.jobs = [j for j in wl.jobs if j.name in TINY[name]]
    return wl


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_untraced_and_traced(name, tmp_path):
    wl = tiny_workload(name, 3, tmp_path / "inputs")
    assert len(wl.jobs) == len(TINY[name])
    report = {}
    result = run.untraced_run(wl, 1, 0.5, report)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.jobs)
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = run.traced_run(wl, tmp_path, {})
    assert traced["correct"] and traced["attempted"] == 2 * len(wl.jobs)
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    assert 0.5 < values["trace.attributed_share"] <= 1.0
    assert values["cli.main.calls"] == sum(j.argv is not None for j in wl.jobs)
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert lines and all(len(json.loads(line)) == 5 for line in lines)


def test_every_metric_name_appears_with_its_unit(tmp_path):
    spec = benchmark_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == spans.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(jobs.BUILDERS)

    wl = tiny_workload("oracle", 1, tmp_path / "inputs")
    wl.jobs = wl.jobs[:1]
    plain = run.untraced_run(wl, 1, 0.5, {})["metrics"]
    assert {k: v["unit"] for k, v in plain.items()} == e2e
    traced = run.traced_run(wl, tmp_path, {})["metrics"]
    assert {k: v["unit"] for k, v in traced.items()} == layer


def test_wrong_expectation_counts_as_failed_without_aborting(tmp_path):
    inp, wl = run.setup(LC, "oracle", 1, tmp_path / "inputs")
    good = next(j for j in wl.jobs if j.name == "gate-oracle plain n=8")
    wrong = jobs.cli_job(LC, "gate-oracle plain n=8 expecting 8",
                         ["gate-oracle", "--n", "8"], jobs.expect(definables=8))

    def refuse():
        raise LC.finspace.BudgetExceeded("over budget")

    raising = jobs.Job("raises", refuse, lambda o: None)
    wl.jobs = [wrong, good, raising, good]
    report = {}
    result = run.untraced_run(wl, 1, 0.5, report)
    assert result["attempted"] == 4 and result["failed"] == 2
    assert not result["correct"]
    assert report["metrics"]["failed_share"]["value"] == 0.5
    assert [f["job"] for f in report["failures"]] == [wrong.name, "raises"]
    assert "definables = 7, expected 8" in report["failures"][0]["error"]
    assert report["samples"] == 2


@pytest.mark.parametrize("name", sorted(jobs.BUILDERS))
def test_seeds_change_shapes_not_sizes(name, tmp_path):
    a = jobs.generate_inputs(name, 1, tmp_path / "a")
    b = jobs.generate_inputs(name, 2, tmp_path / "b")
    assert sorted(a.families) == sorted(b.families)
    for key in a.families:
        assert len(a.families[key].masks) == len(b.families[key].masks)
    assert {k: len(v[0]) for k, v in a.bases.items()} == {k: len(v[0]) for k, v in b.bases.items()}
    assert [j.name for j in jobs.build_workload(LC, name, a, 1).jobs] == [
        j.name for j in jobs.build_workload(LC, name, b, 2).jobs
    ]
    again = jobs.generate_inputs(name, 1, tmp_path / "c")
    assert again.digest == a.digest
    if name != "oracle":  # the oracle's inputs are all fixed
        assert a.digest != b.digest


@pytest.mark.parametrize("name", sorted(jobs.BUILDERS))
def test_warmups_cover_every_cli_command(name, tmp_path):
    _, wl = run.setup(LC, name, 1, tmp_path / "inputs")
    commands = {"gate-oracle", "verify-lattice", "tower", "filters", "y0"}

    def used(job_list):
        return {arg for job in job_list if job.argv for arg in job.argv if arg in commands}

    assert used(wl.warmups) == used(wl.jobs)
    assert all(job.argv[0] in commands for job in wl.warmups)
    run.warm_up(wl)


def test_tracer_patches_every_binding_and_restores_it():
    bindings = [
        (LC.circuit, "filters"), (LC.order_core, "filters"),
        (LC.tower, "definable_assignments"), (LC.circuit, "definable_assignments"),
        (LC.finspace.DiscreteSpace, "closure_masks"),
        (LC.tower.LimitFamily, "meet_analysis"), (LC.cli, "main"),
    ]
    before = [vars(owner)[attr] for owner, attr in bindings]
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = [vars(owner)[attr] for owner, attr in bindings]
        assert all(x is not y for x, y in zip(before, during))
        assert LC.circuit.filters is LC.order_core.filters
        assert vars(LC.gate)["bits"] is vars(LC.finspace)["bits"]  # helpers stay bare
    finally:
        tracer.uninstall()
    assert all(x is y for x, y in zip(before, [vars(o)[a] for o, a in bindings]))


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ("cli.main", 0, 100, -1, "0:0"),
        ("circuit.build_full", 10, 40, 0, "0:0"),
        ("order_core.filters", 50, 90, 0, "0:0"),
        ("order_core.iso", 60, 70, 2, "0:0"),
    ]
    self_ns = tracer.self_times_ns()
    assert self_ns == {
        "cli.main": 30, "circuit.build_full": 30,
        "order_core.filters": 30, "order_core.iso": 10,
    }
    assert sum(self_ns.values()) == 100


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(10) == 100.0


def test_quantile_estimate_weights_the_samples_near_it():
    assert run.quantile([7.0] * 25, 0.5) == pytest.approx(7.0)
    assert run.quantile(list(range(1, 42)), 0.5) == pytest.approx(21.0, rel=1e-3)
    # the 75th percentile of 1..40 lies between the 30th and 31st samples
    assert 29.5 < run.quantile(list(range(1, 41)), 0.75) < 31.5
    assert run.quantile([1.0, 2.0, 9.0], 1.0) == 9.0
    # a gap at the median: the estimate sits between the two groups, and
    # moving one sample across the gap moves it by a fraction of the gap
    low_heavy = run.quantile([1.0] * 11 + [2.0] * 10, 0.5)
    high_heavy = run.quantile([1.0] * 10 + [2.0] * 11, 0.5)
    assert 1.0 < low_heavy < high_heavy < 2.0
    assert high_heavy - low_heavy < 0.5


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = benchmark_spec()
    cmd = spec["command"] + ["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_work").exists()
