#!/usr/bin/env python3
"""Fast self-test of the benchmark, on shrunk workloads.

Run from the root of a relclock checkout:

    python3 relbench/selftest.py

It checks that every workload prints every metric named in BENCHMARK.json
with its unit, in both trace modes; that a config which fails its own check
counts as a failed process; and that the benchmark exits non-zero, printing
no result, where there are no relclock sources.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def result_of(argv, small=True):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, small=small)
    assert rc == 0, f"{argv}: exit code {rc}"
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads(0))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.workloads(0):
        for trace in (0, 1):
            result = result_of(["--workload", workload, "--seed", "7", "--seconds", "1",
                                "--trace", str(trace)])
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == declared[trace], (workload, trace, set(units) ^ set(declared[trace]))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} trace {trace}: {len(units)} metrics, "
                  f"{result['attempted']} processes")


def check_failure_counted():
    # 5 realizations put the noise covariance far outside its 5% check
    real = run.workloads

    def failing(seed, small=False):
        w = real(seed, small)
        w["scan"] = [run.Proc("noise_few", "noise", run._config("noise", seed, noise={"n_real": 5}))]
        return w

    run.workloads = failing
    try:
        result = result_of(["--workload", "scan", "--seed", "7", "--seconds", "1", "--trace", "0"])
    finally:
        run.workloads = real
    # one set-up interpreter and one scenario process; the scenario fails
    assert not result["correct"] and (result["attempted"], result["failed"]) == (2, 1), result
    print("ok  a config failing its own check counts as failed")


def check_no_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok  exits non-zero without a result where there are no sources")


if __name__ == "__main__":
    check_no_sources()
    check_failure_counted()
    check_metrics()
    print("selftest passed")
