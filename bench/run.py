"""The torlink benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The workload's inputs are generated from the seed and written under
`bench/.work/`. Every pass runs in a fresh child process (`child.py`), so
the package's memos start cold, as they do for a CLI invocation; load comes
from that one process, one item at a time. Passes repeat while the next one
is expected to end within S seconds; the first always runs. Set-up is timed
in set-up-only children before and after the passes, and in each pass.

Every item's exit status and stdout are compared with the expected ones
(see `workloads.py`), and each workload's fixed facts are checked.

With `--trace 0` the last line of stdout holds the end-to-end metrics:
median set-up time, median pass time, p90 item latency and median peak
resident set. Times are scaled to a reference host speed (see `speed.py`);
the line before it gives them as measured. With `--trace 1` one untraced
and one traced pass run, and the last line holds the per-layer metrics of
the traced pass (see README.md); its spans go to `bench/.traces/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_CHILDREN = 5  # before the passes, and again after them
TIME_LIMIT = 170.0

# (traced function, statistics reported). "true_ratio" is the share of calls
# that returned True; "<what>_out" totals the lengths of the lists returned.
LAYER_METRICS = (
    ("canonical.canonical_form", ("calls", "self_s")),
    ("canonical.canonical_graph", ("calls", "self_s")),
    ("containment.is_subgraph_iso", ("calls", "self_s", "true_ratio")),
    ("containment.contains_any_minor", ("calls", "self_s")),
    ("containment.has_minor", ("calls", "self_s")),
    ("oracles.is_nil", ("calls", "self_s", "true_ratio")),
    ("oracles.is_maxnil", ("calls", "self_s")),
    ("oracles.is_toroidal", ("calls", "self_s")),
    ("oracles.is_mtn", ("calls", "self_s")),
    ("oracles.petersen_family", ("self_s",)),
    ("graph6.read_graph6_file", ("self_s",)),
    ("torus.parse_embedding", ("self_s",)),
    ("graphs.enumerate_cycles", ("calls", "self_s", "cycles_out")),
    ("torus.cycle_crossing_sums", ("calls", "self_s")),
    ("torus.find_links", ("calls", "self_s", "witnesses_out")),
    ("torus.embedding_warnings", ("calls", "self_s", "warnings_out")),
    ("search.isomorphism_classes", ("self_s", "classes_out")),
    ("search.mtn_search", ("calls", "self_s")),
    ("search.find_all_mtn_order9", ("self_s",)),
    ("search.extract_obstruction_set", ("self_s",)),
    ("search.verify_size19_exclusion", ("self_s",)),
    ("cli.run", ("calls", "self_s")),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "true_ratio": "ratio"}


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description="The torlink benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import torlink from this checkout's sources, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "torlink" / "__init__.py").is_file():
        raise BenchError(f"no torlink sources under {src}")
    sys.path.insert(0, str(src))
    import torlink

    if Path(torlink.__file__).resolve().parent != (src / "torlink").resolve():
        raise BenchError(f"torlink was imported from {torlink.__file__}")
    return torlink


def inputs_digest(manifest: dict, work: Path) -> str:
    """SHA-256 over the items and every input file, wherever work is."""
    h = hashlib.sha256(json.dumps(manifest["items"]).replace(str(work), "").encode())
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def prepare(workload: str, seed: int, work: Path):
    """Generate the inputs under work; return the manifest and its digest."""
    manifest = workloads.make(workload, seed, work, load_package(), ROOT)
    return manifest, inputs_digest(manifest, work)


def run_child(manifest_path: Path, mode: str, deadline: float):
    """Start a child and return ((setup_s, scaled setup_s), report)."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(manifest_path), mode]
    before = speed.scale_now()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        scaled = setup_s * (before + speed.scale_now()) / 2
        if ready.strip() != "ready":
            raise BenchError(f"{mode} child did not get ready: {ready!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with status {proc.returncode}")
    report = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return (setup_s, scaled), report


def failures(manifest: dict, report: dict) -> list[str]:
    """Items whose exit status or stdout differ from the expected ones."""
    if len(report["items"]) != len(manifest["items"]):
        return ["the child reported a different number of items"] * len(manifest["items"])
    bad = []
    for i, (item, (status, digest), got) in enumerate(
        zip(manifest["items"], manifest["expected"], report["items"])
    ):
        if got["status"] != status or got["sha"] != digest:
            bad.append(
                f"item {i} {item[:2]}: status {got['status']} (want {status}), "
                f"stdout {got['stdout'][:120]!r}, stderr {got['stderr'][:120]!r}"
            )
    return bad


def fact_failures(manifest: dict, report: dict) -> list[str]:
    """The fixed facts each workload must reproduce."""
    items = report["items"]
    name = manifest["workload"]
    if name == "census8" and not items[0]["stdout"].startswith("count: 6\n"):
        return ["census-maxnil 8 did not find 6 graphs"]
    if name == "links" and manifest["facts"]["grid3x3_warnings"] != 0:
        return ["the 3x3 grid has warnings"]
    if name == "pipeline9":
        missing = [f for f in workloads.PIPELINE_FACTS if f not in items[2]["stdout"]]
        if missing or items[1]["stdout"] != workloads.PIPELINE_EXCLUSION:
            return [f"pipeline report lacks {missing} or the size-19 exclusion"]
    return []


def timings(setups, reports, scaled: bool) -> dict:
    """Median set-up and pass times and the p90 item latency, as measured or
    scaled to the reference host speed."""
    factors = [r["scale"] if scaled else 1.0 for r in reports]
    latencies = [
        item["seconds"] * 1000 * (item["scale"] if scaled else 1.0)
        for r in reports
        for item in r["items"]
    ]
    if len(latencies) >= 10:
        item_ms = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    else:
        # census8 has one item and pipeline9 three: the median over the
        # passes of the slowest item stands in.
        per_pass = len(reports[0]["items"])
        item_ms = statistics.median(
            max(latencies[i : i + per_pass]) for i in range(0, len(latencies), per_pass)
        )
    return {
        "setup_s": {
            "value": statistics.median(s[1] if scaled else s[0] for s in setups),
            "unit": "s",
        },
        "run_s": {
            "value": statistics.median(r["run_s"] * f for r, f in zip(reports, factors)),
            "unit": "s",
        },
        "item_p90_ms": {"value": item_ms, "unit": "ms"},
    }


def layer_metrics(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced pass; self times are scaled like the
    end-to-end times. Returns them and the traced functions not found."""
    trace = traced["trace"]
    scale = traced["scale"]
    metrics = {}
    absent = []
    for fname, stats in LAYER_METRICS:
        entry = trace.get(fname)
        if entry is None:
            absent.append(fname)
            entry = {"calls": 0, "self_s": 0.0, "trues": 0, "items": 0}
        values = {
            "calls": entry["calls"],
            "self_s": entry["self_s"] * scale,
            "true_ratio": entry["trues"] / entry["calls"] if entry["calls"] else 0.0,
        }
        for stat in stats:
            metrics[f"{fname}.{stat}"] = {
                "value": values.get(stat, entry["items"]),
                "unit": STAT_UNITS.get(stat, "count"),
            }
    metrics["search.nodes"] = {"value": traced["search_nodes"], "unit": "count"}
    total = sum(e["self_s"] for e in trace.values()) or 1.0
    for layer in LAYERS:
        share = sum(e["self_s"] for f, e in trace.items() if f.startswith(layer + "."))
        metrics[f"layer.{layer}.share"] = {"value": share / total, "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {
        "value": traced["run_s"] * traced["scale"] / (untraced["run_s"] * untraced["scale"]),
        "unit": "ratio",
    }
    return metrics, absent


def measure(args, manifest_path: Path):
    """Run the set-up children and the passes; return (setups, reports,
    traced report or None)."""
    deadline = time.perf_counter() + TIME_LIMIT
    setups = [run_child(manifest_path, "setup", deadline)[0] for _ in range(SETUP_CHILDREN)]
    reports = []
    began = time.perf_counter()
    while True:
        setup_s, report = run_child(manifest_path, "run", deadline)
        setups.append(setup_s)
        reports.append(report)
        elapsed = time.perf_counter() - began
        if args.trace or elapsed + elapsed / len(reports) > args.seconds:
            break
    traced = run_child(manifest_path, "trace", deadline)[1] if args.trace else None
    setups += [run_child(manifest_path, "setup", deadline)[0] for _ in range(SETUP_CHILDREN)]
    return setups, reports, traced


def main(argv) -> int:
    args = parse_args(argv)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    manifest_path = work.with_suffix(".json")
    work.mkdir(parents=True)
    try:
        manifest, digest = prepare(args.workload, args.seed, work)
        # One file per workload, overwritten: links writes ~10 million spans.
        manifest["spans"] = str(BENCH / ".traces" / f"{args.workload}.spans")
        manifest_path.write_text(json.dumps(manifest))
        print(f"inputs: workload={args.workload} seed={args.seed} sha256={digest}")
        setups, reports, traced = measure(args, manifest_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        manifest_path.unlink(missing_ok=True)

    passes = reports + ([traced] if traced else [])
    attempted = len(manifest["items"]) * len(passes)
    problems = []
    failed = 0
    for report in passes:
        bad = failures(manifest, report)
        failed += len(bad)
        problems += bad + fact_failures(manifest, report)
    if traced and [i["sha"] for i in traced["items"]] != [i["sha"] for i in reports[0]["items"]]:
        problems.append("the traced and untraced passes printed different outputs")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} items)")

    if traced:
        metrics, absent = layer_metrics(traced, reports[0])
        if absent:
            print("absent: " + " ".join(absent))
    else:
        metrics = timings(setups, reports, scaled=True)
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in reports),
            "unit": "MB",
        }
        measured = timings(setups, reports, scaled=False)
        print("unscaled: " + " ".join(f"{k}={v['value']:.6g}" for k, v in measured.items()))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
