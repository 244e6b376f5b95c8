"""One cold run of one workload, in a process of its own.

    python3 bench/child.py MANIFEST MODE

MODE is `setup` (set up, report ready, exit), `run` (set up, then run every
item) or `trace` (the same as `run`, with the tracer installed before set-up).
Set-up imports torlink from the checkout's `src/`, builds the Petersen
family and parses the workload's input files; the child then prints
`ready`. After the timed section it prints one JSON line: the time from
ready to the last output written, each item's exit status, stdout digest,
latency and host-speed factor (see speed.py), and the peak resident set.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SMALL_OUTPUT = 2048


def _setup(manifest: dict, tl):
    tl.petersen_family()
    setup = manifest["setup"]
    for path in setup.get("graph6", ()):
        tl.read_graph6_file(path)
    for path in setup.get("embedding", ()):
        tl.parse_embedding(Path(path).read_text())
    if manifest["workload"] != "pipeline9":
        return None
    roots = tl.read_graph6_file(setup["roots"])
    db = tl.ObstructionDB(
        {
            8: tl.order8_obstructions(),
            9: tuple(tl.read_graph6_file(setup["obstructions9"])),
        }
    )
    roots = sorted((tl.canonical_graph(g) for g in roots), key=tl.canonical_form)
    return tl.SearchContext((), tuple(roots), db, size_floor=setup["size_floor"])


def _pipeline_step(tl, ctx, state: dict, step: str, out) -> int:
    """The stages of `torlink mtn-census`, printed the way it prints them."""
    if step == "extract":
        hits = tl.extract_obstruction_set(ctx)
        state["hits"] = hits
        sizes = ",".join(str(g.size) for g in hits.subgraphs)
        out.write(f"obstruction_subgraphs {len(hits.subgraphs)} sizes={sizes}\n")
        out.write(f"obstruction_order8_minors {len(hits.order8_minors)}\n")
        return 0
    if step == "exclusion":
        ok = tl.verify_size19_exclusion(state["hits"].subgraphs, ctx.db)
        out.write(f"size19_exclusion {'pass' if ok else 'fail'}\n")
        return 0 if ok else 1
    out.write(tl.find_all_mtn_order9(ctx).to_text())
    return 0


def main(argv) -> int:
    manifest_path, mode = argv
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import torlink
    import torlink.cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(torlink)
    ctx = _setup(manifest, torlink)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    state: dict = {}
    results = []
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    for item in manifest["items"]:
        out, err = io.StringIO(), io.StringIO()
        spent0 = sampler.spent_ns
        t0 = time.perf_counter_ns()
        try:
            with redirect_stderr(err):
                if ctx is None:
                    status = torlink.cli.run(item, out=out)
                else:
                    status = _pipeline_step(torlink, ctx, state, item[0], out)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an item that raises is counted as failed
            status = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        elapsed = (t1 - t0 - (sampler.spent_ns - spent0)) / 1e9
        text = out.getvalue()
        results.append(
            {
                "status": status,
                "sha": hashlib.sha256(text.encode()).hexdigest(),
                "seconds": elapsed,
                "window": (t0, t1),
                "stdout": text if len(text) <= SMALL_OUTPUT else text[:200],
                "stderr": err.getvalue()[:200],
            }
        )
    run_s = time.perf_counter() - start - sampler.spent_ns / 1e9
    sampler.stop()
    for result in results:
        result["scale"] = sampler.scale(*result.pop("window"))
    raw = sum(r["seconds"] for r in results)
    scaled = sum(r["seconds"] * r["scale"] for r in results)
    report = {
        "run_s": run_s,
        "scale": scaled / raw,
        "items": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "search_nodes": len(ctx.cache) if ctx is not None else 0,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        spans = Path(manifest["spans"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans, report["trace"])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
