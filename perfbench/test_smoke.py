"""Smoke tests of the benchmark itself (tiny grids, a few seconds each).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["surface-orders", "curve-routes", "cli-cold"])
def test_smoke_metrics_and_integers(workload, trace):
    # --smoke exits 1 on a missing metric, a wrong unit or a wrong integer
    proc = run(["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == 3
    for p in record["passes"]:
        for row in p["rows"]:
            assert not row["wrong"], row


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import spherelink as sl
    from workloads import build_cases

    for workload in ("surface-orders", "curve-routes", "cli-cold"):
        a = build_cases(sl, workload, 9, smoke=True)
        b = build_cases(sl, workload, 9, smoke=True)
        for x, y in zip(a, b):
            assert x.spec == y.spec
            for m, n in ((x.K, y.K), (x.L, y.L)):
                if m is not None:
                    coords = np.full((1, m.dim), 0.3)
                    assert (m.batch(coords)[0] == n.batch(coords)[0]).all()


def test_fails_without_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark must not report
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run(["--workload", "curve-routes", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
