"""Command-line interface: predicates, slope queries, censuses, certification.

Exit status contract: 0 on success or a passing verdict, 1 on a negative
mathematical verdict (a link found, a failed certification, a predicate
that came out false), 2 on usage or data errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ParseError, TorlinkError, UnsupportedOrderError
from .graph6 import decode_graph6, encode_graph6, read_graph6_file, read_text
from .graphs import Graph
from .oracles import (
    ObstructionDB,
    is_maxnil,
    is_mtn,
    is_nil,
    is_tn,
    is_toroidal,
    petersen_family,
)
from .search import (
    MAXNIL_ORDER9_FILE,
    census_maxnil,
    certify_order,
    extract_obstruction_set,
    find_all_mtn_order9,
    load_search_context,
    verify_size19_exclusion,
)
from .torus import (
    SlopeClass,
    TorusDiagram,
    cycle_crossing_sums,
    find_links,
    parse_embedding,
    torus_link_linking_number,
    verify_embedding,
)

PASS, FAIL, USAGE = 0, 1, 2


def load_embedding_file(path) -> TorusDiagram:
    """A validated torus diagram from a 4-line embedding file."""
    path = Path(path)
    try:
        return parse_embedding(read_text(path))
    except TorlinkError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def _data_dir(args) -> Path | None:
    if args.data_dir:
        return Path(args.data_dir)
    env = os.environ.get("TORLINK_DATA_DIR")
    return Path(env) if env else None


def _required_data_dir(args) -> Path:
    d = _data_dir(args)
    if d is None:
        raise TorlinkError("--data-dir (or TORLINK_DATA_DIR) is required")
    return d


def _obstruction_db(args) -> ObstructionDB:
    d = _data_dir(args)
    return ObstructionDB.from_dir(d) if d else ObstructionDB.builtin()


def _read_graphs(path) -> list[Graph]:
    """The graphs of a graph6 file; a file without any is a usage error."""
    graphs = read_graph6_file(path)
    if not graphs:
        raise TorlinkError(f"{Path(path).name}: no graphs")
    return graphs


def _input_graphs(spec: str) -> list[Graph]:
    """The graphs of the graph6 file spec names, else the one graph of the
    graph6 string spec; a spec that is neither is an error naming it."""
    path = Path(spec)
    if path.is_file():
        return _read_graphs(spec)
    try:
        return [decode_graph6(spec)]
    except ParseError as exc:
        if not spec.strip():
            raise
        why = f"no such file, and not a graph6 string: {exc}"
        if path.exists():
            why = "a directory" if path.is_dir() else "not a regular file"
        raise ParseError(f"{spec}: {why}") from None


# The `check` predicates, in output order: (flag, output label, help text,
# evaluator, whether it needs the obstruction database). An evaluator is
# called as evaluator(g, db), with db None unless its row needs one; each
# names its predicate at call time, so a rebound module name is used.
_CHECKS = (
    ("--nil", "nIL", "linkless-embeddable test", lambda g, db: is_nil(g), False),
    ("--toroidal", "toroidal", None, lambda g, db: is_toroidal(g, db), True),
    ("--tn", "TN", "toroidal and nIL", lambda g, db: is_tn(g, db), True),
    ("--maxnil", "maxnIL", "maximally nIL", lambda g, db: is_maxnil(g), False),
    ("--mtn", "MTN", "maximally TN", lambda g, db: is_mtn(g, db), True),
    ("--connected", "connected", None, lambda g, db: g.is_connected(), False),
)


def _cmd_check(args, out) -> int:
    graphs = _input_graphs(args.graph)
    wanted = [
        (label, evaluate, needs_db)
        for flag, label, _, evaluate, needs_db in _CHECKS
        if getattr(args, flag[2:])
    ]
    if not wanted:
        raise TorlinkError("no predicate requested (try --nil)")
    db = _obstruction_db(args) if any(row[2] for row in wanted) else None
    if db is not None:
        # Every order is checked before the first line is written.
        for i, g in enumerate(graphs, start=1):
            try:
                db.check_supported(g.n)
            except UnsupportedOrderError as exc:
                where = "" if len(graphs) == 1 else f"graph {i}: "
                raise type(exc)(f"{where}{exc}") from None
    all_true = True
    for i, g in enumerate(graphs, start=1):
        prefix = "" if len(graphs) == 1 else f"graph {i} "
        for label, evaluate, _ in wanted:
            value = evaluate(g, db)
            all_true = all_true and value
            out.write(f"{prefix}{label}: {str(value).lower()}\n")
    return PASS if all_true else FAIL


def _write_report(args, out, lines) -> None:
    """The report's lines to the --out file if one is given, else to out."""
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        out.write(text)


def _cmd_petersen(args, out) -> int:
    _write_report(args, out, [encode_graph6(g) for g in petersen_family()])
    return PASS


def _cmd_linking_number(args, out) -> int:
    value = torus_link_linking_number(args.m, args.n)
    out.write(f"{value}\n")
    return PASS


def _parse_cycle(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise TorlinkError(f"bad cycle {text!r}") from None


def _cmd_slope(args, out) -> int:
    diagram = load_embedding_file(args.embedding)
    cycle = _parse_cycle(args.cycle)
    p, q = cycle_crossing_sums(diagram, cycle)
    slope = SlopeClass.from_sums(p, q)
    out.write("cycle: " + " ".join(map(str, cycle)) + "\n")
    out.write(f"crossings: P={p} Q={q}\n")
    out.write(f"slope: {slope}\n")
    out.write(f"linking: {str(slope.is_linking).lower()}\n")
    return PASS


def _write_links(witnesses, out) -> None:
    for w in witnesses:
        out.write(f"link: {w}\n")


def _cmd_find_links(args, out) -> int:
    lo, hi = args.min_cycle, args.max_cycle
    if lo is not None and hi is not None and hi < lo:
        raise TorlinkError(f"empty cycle window: --min-cycle {lo} > --max-cycle {hi}")
    diagram = load_embedding_file(args.embedding)
    witnesses = find_links(diagram, lo, hi)
    out.write(f"links: {len(witnesses)}\n")
    _write_links(witnesses, out)
    return PASS


def _cmd_verify_embedding(args, out) -> int:
    diagram = load_embedding_file(args.embedding)
    warnings, witnesses = verify_embedding(diagram)
    for warning in warnings:
        out.write(f"warning: {warning}\n")
    out.write(f"linkless: {str(not witnesses).lower()}\n")
    _write_links(witnesses, out)
    return PASS if not witnesses else FAIL


def _cmd_census_maxnil(args, out) -> int:
    graphs = census_maxnil(args.order)
    lines = [f"count: {len(graphs)}"]
    lines += [encode_graph6(g) for g in graphs]
    _write_report(args, out, lines)
    return PASS


def _cmd_mtn_census(args, out) -> int:
    ctx = load_search_context(_required_data_dir(args))
    hits = extract_obstruction_set(ctx)
    sizes = ",".join(str(g.size) for g in hits.subgraphs)
    out.write(f"obstruction_subgraphs {len(hits.subgraphs)} sizes={sizes}\n")
    out.write(f"obstruction_order8_minors {len(hits.order8_minors)}\n")
    exclusion = verify_size19_exclusion(hits.subgraphs, ctx.db)
    out.write(f"size19_exclusion {'pass' if exclusion else 'fail'}\n")
    report = find_all_mtn_order9(ctx)
    out.write(report.to_text())
    print(f"search time: {report.seconds:.1f}s", file=sys.stderr)
    return PASS if exclusion else FAIL


def _cmd_certify(args, out) -> int:
    graphs = _read_graphs(args.mtn)
    emb_dir = Path(args.embeddings)
    if not emb_dir.is_dir():
        raise TorlinkError(f"{emb_dir}: not a directory")
    paths = sorted(emb_dir.glob("*.emb"))
    report = certify_order(
        graphs, [(p.name, load_embedding_file(p)) for p in paths]
    )
    out.write(report.to_text())
    return PASS if report.overall_pass else FAIL


def _cmd_validate_data(args, out) -> int:
    d = _required_data_dir(args)
    # Load and validate everything before writing, so a rejected data
    # directory leaves stdout empty.
    ctx = None
    if (d / MAXNIL_ORDER9_FILE).exists():
        ctx = load_search_context(d)
        db = ctx.db
    else:
        db = ObstructionDB.from_dir(d)
    out.write(
        "obstruction orders: "
        + " ".join(f"{k}({len(graphs)})" for k, graphs in db.by_order.items())
        + "\n"
    )
    out.write(f"max_supported_order: {db.max_supported_order}\n")
    if ctx is None:
        out.write(f"{MAXNIL_ORDER9_FILE}: absent\n")
        return PASS
    out.write(f"{MAXNIL_ORDER9_FILE}: 20 graphs, all order 9, all maxnIL\n")
    out.write(f"toroidal: {len(ctx.toroidal_maxnil)}\n")
    out.write(f"nontoroidal: {len(ctx.nontoroidal_maxnil)}\n")
    return PASS


def _jobs(text: str) -> int:
    """`--jobs` value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torlink",
        description=(
            "Graph predicates via forbidden minors, torus-diagram link "
            "detection, and the maximal toroidal-linkless census."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_dir(p):
        p.add_argument(
            "--data-dir",
            help="directory with obstruction / maxnIL data files "
            "(default: $TORLINK_DATA_DIR)",
        )

    p = sub.add_parser("check", help="evaluate predicates on graph6 input")
    p.add_argument("graph", help="graph6 string or path to a graph6 file")
    for flag, _, help_text, _, _ in _CHECKS:
        p.add_argument(flag, action="store_true", help=help_text)
    add_data_dir(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("petersen", help="emit the Petersen family as graph6")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_petersen)

    p = sub.add_parser(
        "linking-number", help="linking number of the (m, n) torus link"
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_linking_number)

    p = sub.add_parser("slope", help="slope class of a cycle in a diagram")
    p.add_argument("embedding", help="embedding file")
    p.add_argument("--cycle", required=True, help="cycle, e.g. 1,2,3")
    p.set_defaults(handler=_cmd_slope)

    p = sub.add_parser("find-links", help="list linked cycle pairs in a diagram")
    p.add_argument("embedding", help="embedding file")
    p.add_argument("--min-cycle", type=int, default=None)
    p.add_argument("--max-cycle", type=int, default=None)
    p.set_defaults(handler=_cmd_find_links)

    p = sub.add_parser(
        "verify-embedding", help="check a diagram is linkless (exit 1 if not)"
    )
    p.add_argument("embedding", help="embedding file")
    p.set_defaults(handler=_cmd_verify_embedding)

    p = sub.add_parser(
        "census-maxnil", help="exhaustive maxnIL census for one order (3..9)"
    )
    p.add_argument("order", type=int)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_census_maxnil)

    p = sub.add_parser(
        "mtn-census", help="order-9 search pipeline over external data files"
    )
    add_data_dir(p)
    p.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker hint; results are independent of this setting",
    )
    p.set_defaults(handler=_cmd_mtn_census)

    p = sub.add_parser(
        "certify", help="verify linkless embeddings for a list of graphs"
    )
    p.add_argument("--mtn", required=True, help="graph6 file of graphs to cover")
    p.add_argument(
        "--embeddings", required=True, help="directory of .emb diagram files"
    )
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("validate-data", help="strictly validate a data directory")
    add_data_dir(p)
    p.set_defaults(handler=_cmd_validate_data)

    return parser


# Built by the first run and reused: building it costs more than most
# commands it parses. parse_args leaves the parser unchanged.
_parser: argparse.ArgumentParser | None = None


def run(argv=None, out=None) -> int:
    """Parse argv, execute the mapped command, and return the exit status."""
    global _parser
    out = out if out is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except (TorlinkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(run())
