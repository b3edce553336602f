"""Self-tests for the benchmark harness.

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY_TIMES = {"kind": "cli", "cmd": "times",
              "set": {"V0": 10.0, "d": 5.0, "E_min": 1.0, "E_max": 9.0, "E_points": 5}}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_job_list_is_deterministic_in_seed(name):
    a, b, c = (workloads.make_jobs(name, s) for s in (7, 7, 8))
    assert a == b and workloads.digest(a) == workloads.digest(b)
    assert a != c and workloads.digest(a) != workloads.digest(c)
    assert [j["id"] for j in a] == list(range(len(a)))


def test_failing_job_is_counted_and_the_list_goes_on(tmp_path):
    jobs = [
        {"id": 0, "kind": "cli", "cmd": "times", "set": {"V0": 10.0, "bogus": 1.0}},
        {"id": 1, "kind": "lib", "fn": "norm_on_window", "t": 0.0, "window": [0.0, 1.0],
         "dx": 0.1, "packet": {"E": 5.0, "dk": -0.02, "n_nodes": 33},
         "barrier": {"V0": 10.0, "d": 5.0}},
        dict(TINY_TIMES, id=2),
    ]
    records = worker.run_jobs(jobs, tmp_path)
    assert [r["error"] is not None for r in records] == [True, True, False]
    assert records[0]["error"] == "exit code 2"
    assert records[1]["error"].startswith("ValueError")
    for rec in records:
        rec["output"] = worker.output_digest(rec)
    worker.check_jobs(jobs, records)
    tally = run.job_tally([{"jobs": records}])
    assert (tally["attempted"], tally["failed"]) == (3, 2)
    assert tally["passed_frac"] == pytest.approx(1 / 3)
    assert not tally["invariant_ok"]
    assert set(records[2]["checks"]) == {"T_vs_transfer", "unitarity"}
    assert all(ok for ok, _ in records[2]["checks"].values())


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"])
                for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = {n: (u, b) for n, u, b in run.END_TO_END + tuple(run.PER_LAYER)}
    assert declared == emitted
    assert len(declared) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for name in [*declared, *(w["name"] for w in spec["workloads"])]:
        assert NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.CHECKS) >= set(run.DEFECT_PROBES)


def test_tracer_uninstall_restores_every_binding():
    from tunneltime import cli, times, units
    from tracer import Tracer

    before = (cli.COMMANDS["times"], times.closed_form_square, units.UnitSystem.k_of_E)
    tracer = Tracer().install()
    assert cli.COMMANDS["times"] is not before[0]
    assert times.closed_form_square is not before[1]
    tracer.uninstall()
    assert (cli.COMMANDS["times"], times.closed_form_square,
            units.UnitSystem.k_of_E) == before


def test_baseline_ratio_takes_the_median_paired_ratio_per_job():
    # job 0 runs twice as long as on the baseline in every pair, job 1 the
    # same; a slow host phase in the second worker scales both halves alike
    paired = [{"jobs": [{"seconds": 2.0}, {"seconds": 1.0}], "baseline_seconds": [1.0, 1.0]},
              {"jobs": [{"seconds": 3.0}, {"seconds": 1.5}], "baseline_seconds": [1.5, 1.5]},
              {"jobs": [{"seconds": 9.0}, {"seconds": 1.0}], "baseline_seconds": [1.0, 1.0]}]
    assert run.baseline_ratio(paired) == pytest.approx((2.0 + 1.0) / 2)


def test_traced_and_untraced_runs_execute_the_same_jobs(tmp_path):
    jobs = [dict(TINY_TIMES, id=0),
            {"id": 1, "kind": "lib", "fn": "norm_on_window", "t": 0.0,
             "window": [-50.0, 50.0], "dx": 0.5, "packet": {"E": 5.0, "dk": 0.02, "n_nodes": 65},
             "barrier": {"V0": 10.0, "d": 5.0}}]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    results = []
    for flag in ([], ["--trace"], ["--paired", "1"]):
        out = tmp_path / f"r{len(results)}.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"),
                        "--jobs", str(jobs_file), "--result", str(out), *flag],
                       check=True, timeout=120)
        results.append(json.loads(out.read_text()))
    plain, traced, paired = results
    for other in (traced, paired):
        assert other["digest"] == plain["digest"] == workloads.digest(jobs)
        assert [j["output"] for j in other["jobs"]] == [j["output"] for j in plain["jobs"]]
        assert [(j["id"], j["name"]) for j in other["jobs"]] == \
            [(j["id"], j["name"]) for j in plain["jobs"]]
    assert "trace" not in plain and "trace" not in paired
    assert len(paired["baseline_seconds"]) == len(jobs)
    spans = traced["trace"]["spans"]
    assert spans["cli.main"]["calls"] == 1
    assert spans["wavepacket.norm_on_window"]["calls"] == 1
    assert spans["units.UnitSystem.k_of_E"]["calls"] > 0
