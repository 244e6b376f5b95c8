"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the same seed gives the same inputs and another seed other
inputs; that a traced and an untraced run both pass their output checks,
print the same outputs (run.py fails a traced run whose outputs differ) and
report exactly the metrics BENCHMARK.json names; and that the benchmark
refuses to run, without a result, where the package's sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def digest(workload: str, seed: int) -> str:
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        return run.prepare(workload, seed, Path(tmp))[1]


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS), names

    for workload in workloads.WORKLOADS:
        first, again, other = digest(workload, 1), digest(workload, 1), digest(workload, 2)
        assert first == again, f"{workload}: seed 1 gave two different inputs"
        if workload != "census8":  # census-maxnil 8 takes no input
            assert first != other, f"{workload}: seeds 1 and 2 gave the same inputs"
        print(f"ok inputs {workload}")

    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = result_of(bench("--workload", "links", "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace)))
        assert result["correct"] and result["failed"] == 0, result
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"--trace {trace}: {sorted(set(got) ^ set(want))}"
        print(f"ok run --trace {trace}")

    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        (bare / "bench").mkdir()
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = bench("--workload", "check", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
