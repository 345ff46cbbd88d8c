"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root (they are not part of the default suite,
which only collects ``test_*.py``)::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

Each workload runs once untraced and once traced through the real
command, with instances scaled down and short rounds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import plans  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("cold_firstfit", "warm_remote", "serve_mix")
TINY = ["--seconds", "0.5", "--scale", "0.05"]


def bench(workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {
        (w, trace): bench(w, seed=3, trace=trace) for w in WORKLOADS for trace in (0, 1)
    }


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared():
    return (
        {m["name"]: m["unit"] for m in spec()["end_to_end"]},
        {m["name"]: m["unit"] for m in spec()["per_layer"]},
    )


def test_declared_metrics_match_the_command():
    end_to_end, per_layer = declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(runs, workload, trace):
    table, result = runs[(workload, trace)]
    expected = declared()[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value
        assert any(re.fullmatch(rf"\s*{re.escape(name)}\s+\S+ {re.escape(unit)}", line)
                   for line in table), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_all_check_out(runs, workload):
    _, result = runs[(workload, 0)]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert result["metrics"]["cost_ratio"]["value"] >= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall(runs, workload):
    table, _ = runs[(workload, 1)]
    line = next(x for x in table if "traced client partition" in x)
    wall, self_ms, unattributed = map(float, re.findall(r"([\d.]+) ms", line))
    assert self_ms + unattributed == pytest.approx(wall, rel=1e-4, abs=0.002)
    # The layers cover the loop: only the benchmark's own bookkeeping
    # is left unattributed.
    assert 0 <= unattributed < 0.25 * wall


def shares(table):
    line = next(x for x in table if "layer groups, share of traced client wall" in x)
    return {g: float(v) for g, v in re.findall(r"(\w+) (-?[\d.]+)", line.split(":", 1)[1])}


def test_stressed_layers_dominate(runs):
    cold = shares(runs[("cold_firstfit", 1)][0])
    warm = shares(runs[("warm_remote", 1)][0])
    assert set(cold) == set(run.LAYER_GROUPS)
    assert cold["algorithm"] > 0.6
    assert warm["algorithm"] == 0.0
    assert warm["codec"] > 0.5
    for table, _ in (runs[(w, 1)] for w in WORKLOADS):
        assert sum(shares(table).values()) == pytest.approx(1.0, abs=0.25)


def test_stressed_layers_show(runs):
    cold = runs[("cold_firstfit", 1)][1]["metrics"]
    warm = runs[("warm_remote", 1)][1]["metrics"]
    mix = runs[("serve_mix", 1)][1]["metrics"]
    assert cold["occupancy.first_fit_calls"]["value"] > 0
    assert cold["wire.bytes_out_per_req"]["value"] == 0
    assert warm["occupancy.first_fit_calls"]["value"] == 0
    assert warm["server.wire_hit_ratio"]["value"] == 1.0
    assert mix["repair.hits"]["value"] > 0
    assert mix["repair.aborts"]["value"] == 0
    assert mix["store.puts"]["value"] > 0


def test_checker_counts_wrong_answers():
    import dataclasses

    import worker
    from repro.api import EngineConfig, Session
    from repro.core.schedule import Schedule

    requests = plans.cold_firstfit(1, 0, 4, 0.05)
    with Session(EngineConfig(store_path=None)) as session:
        good = [session.solve(r.instance, r.family) for r in requests]
    minbusy = requests[0]
    assert minbusy.family == "minbusy"
    one_machine = Schedule(g=minbusy.instance.g)
    for job in minbusy.instance.jobs:
        one_machine.assign(job, 0)
    other_answer = good[1]
    wrong = {
        # Local: the registered verifier rejects the schedule itself.
        False: [other_answer, dataclasses.replace(good[0], schedule=one_machine)],
        # Remote: served bytes that differ from the oracle's.
        True: [other_answer, dataclasses.replace(good[0], cost=good[0].cost + 1)],
    }
    for remote, bad in wrong.items():
        checker = worker.Checker(remote=remote)
        for request, result in zip(requests, good):
            checker.check(request, result)
        assert checker.validated == len(requests) and not checker.errors
        for result in bad:
            checker.check(minbusy, result)
        assert checker.validated == len(requests)
        assert len(checker.errors) == len(bad)


def _fingerprints(requests):
    from repro.engine.engine import plan_solve

    return [plan_solve(r.instance, r.family, r.params).fingerprint for r in requests]


def test_seed_changes_inputs_not_metric_set(runs):
    for seed_a, seed_b in ((1, 1), (1, 2)):
        a = _fingerprints(plans.cold_firstfit(seed_a, 0, 4, 0.05))
        b = _fingerprints(plans.cold_firstfit(seed_b, 0, 4, 0.05))
        assert (a == b) == (seed_a == seed_b)
        mix_a = plans.serve_mix(seed_a, 0, 40, 0.05).requests
        mix_b = plans.serve_mix(seed_b, 0, 40, 0.05).requests
        assert (_fingerprints(mix_a) == _fingerprints(mix_b)) == (seed_a == seed_b)
    _, other = bench("serve_mix", seed=4, trace=0)
    assert set(other["metrics"]) == set(runs[("serve_mix", 0)][1]["metrics"])


def test_exits_nonzero_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cold_firstfit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
