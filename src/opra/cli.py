"""Command-line front end.

Exit codes: 0 success (including empty results), 1 inconclusive (bound or
oracle exhausted), 2 input errors and evaluation errors (such as an undefined
infinite sum), 3 normal-form size guard, 4 complement of a query with free
path variables.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import algebra, bruteforce, translate
from .engine import Engine, EngineLimits
from .errors import (
    BoundExhausted,
    DnfLimitExceeded,
    GraphFormatError,
    HasFreePathVariables,
    OpraError,
    SignatureMismatch,
)
from .graph import embed_data_graph, embed_ecrpq, graph_to_dict, load_graph
from .model import validate
from .parser import parse
from .render import render

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2
EXIT_SIZE_GUARD = 3
EXIT_COMPLEMENT = 4


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _shift_demo_args(args):
    # with --demo the graph argument is omitted: `opra eval --demo q.opra`
    if getattr(args, "demo", False) and args.query is None:
        args.query = args.graph
        args.graph = None
    if args.query is None:
        raise GraphFormatError("no query file given")


def _load_graph(args):
    if getattr(args, "demo", False):
        with resources.files("opra").joinpath("data/map_graph.json").open() as fh:
            from .graph import graph_from_dict
            return graph_from_dict(json.load(fh))
    if args.graph is None:
        raise GraphFormatError("no graph file given (or use --demo)")
    return load_graph(args.graph)


def _load_query(path, schema):
    with open(path, "r", encoding="utf-8") as fh:
        q = parse(fh.read())
    diags = validate(q, schema)
    if diags:
        raise GraphFormatError("; ".join(str(d) for d in diags))
    return q


def _format_path(p) -> str:
    return "[" + ",".join(str(v) for v in p) + "]"


def cmd_eval(args) -> int:
    try:
        _shift_demo_args(args)
        g = _load_graph(args)
        q = _load_query(args.query, g.schema())
    except OpraError as exc:
        return _fail(str(exc))
    engine = Engine(EngineLimits(counter_box=args.counter_box))
    try:
        result, complete = engine.answers(q, g, max_witness_len=args.max_witness_len)
    except BoundExhausted as exc:
        return _fail(str(exc), EXIT_INCONCLUSIVE)
    except OpraError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    rows = sorted(result, key=lambda item: tuple(map(str, item[0])))
    if args.json:
        doc = {
            "version": 1,
            "complete": complete,
            "answers": [
                {"nodes": [str(v) for v in nodes],
                 "witness": [[str(v) for v in p] for p in witness]}
                for nodes, witness in rows
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for nodes, witness in rows:
            line = "(" + ", ".join(str(v) for v in nodes) + ")"
            if witness:
                line += "  " + " ".join(
                    f"{var}={_format_path(p)}"
                    for var, p in zip(q.select_paths, witness))
            print(line)
        if not rows:
            print("(no answers)")
        if not complete:
            print("inconclusive: some instantiations exhausted the search bound",
                  file=sys.stderr)
    return EXIT_OK if complete else EXIT_INCONCLUSIVE


def cmd_check(args) -> int:
    try:
        _shift_demo_args(args)
        g = _load_graph(args)
        q = _load_query(args.query, g.schema())
    except OpraError as exc:
        return _fail(str(exc))
    engine = Engine(EngineLimits(counter_box=args.counter_box))
    inconclusive = False
    try:
        got, complete = engine.answers(q, g)
        inconclusive = inconclusive or not complete
        oracle_set = bruteforce.answers_brute(q, g, max_len=args.oracle_len,
                                              engine=engine)
    except BoundExhausted:
        return _fail("engine inconclusive", EXIT_INCONCLUSIVE)
    except OpraError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    engine_set = {nodes for nodes, _ in got}
    rows = sorted(engine_set | oracle_set, key=lambda t: tuple(map(str, t)))
    disagree = unknown = 0
    for nodes in rows:
        in_engine = nodes in engine_set
        in_oracle = nodes in oracle_set
        if in_engine and in_oracle:
            verdict = "AGREE"
        elif in_engine and not in_oracle:
            witness = next(w for n, w in got if n == nodes)
            too_long = any(len(p) > args.oracle_len for p in witness) \
                or not witness
            verdict = "UNKNOWN" if too_long else "DISAGREE"
        else:
            verdict = "DISAGREE"
        if verdict == "DISAGREE":
            disagree += 1
        elif verdict == "UNKNOWN":
            unknown += 1
        print(f"{verdict} ({', '.join(str(v) for v in nodes)})")
    if not rows:
        print("AGREE (both empty)")
    if disagree:
        return _fail(f"{disagree} disagreements", EXIT_INCONCLUSIVE)
    if unknown or inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_translate(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
        if args.kind == "rdpa":
            machine = translate.parse_rdpa(text)
            q = translate.rdpa_to_query(machine, dnf_limit=args.dnf_limit)
        else:
            eq, lc = translate.parse_ecrpq(text)
            if args.kind == "ecrpq-lc":
                q = translate.ecrpq_lc_to_pra(eq, lc)
            else:
                q = translate.ecrpq_to_pr(eq)
    except DnfLimitExceeded as exc:
        return _fail(str(exc), EXIT_SIZE_GUARD)
    except (OpraError, OSError) as exc:
        return _fail(str(exc))
    print(render(q))
    return EXIT_OK


def cmd_algebra(args) -> int:
    try:
        if args.op in ("project", "complement"):
            q1 = _read_query(args.inputs[0])
        elif args.op in ("intersect", "union", "product"):
            q1 = _read_query(args.inputs[0])
            q2 = _read_query(args.inputs[1])
        if args.op == "project":
            keep_nodes = args.keep_nodes.split(",") if args.keep_nodes else []
            keep_paths = args.keep_paths.split(",") if args.keep_paths else []
            out = algebra.project(q1, [v for v in keep_nodes if v],
                                  [v for v in keep_paths if v])
        elif args.op == "intersect":
            out = algebra.intersect(q1, q2)
        elif args.op == "union":
            out = algebra.union(q1, q2)
        elif args.op == "product":
            out = algebra.cartesian(q1, q2)
        elif args.op == "complement":
            out = algebra.complement(q1)
        elif args.op == "ham":
            n = args.nodes
            if n is None and args.graph is not None:
                n = len(load_graph(args.graph).real_nodes)
            if n is None:
                return _fail("ham needs --nodes N or --graph FILE")
            out = algebra.hamiltonian_query(n)
        elif args.op == "dag":
            out = algebra.dag_query()
        elif args.op == "unique":
            out = algebra.unique_path_query()
        else:
            return _fail(f"unknown operation {args.op!r}")
    except HasFreePathVariables as exc:
        return _fail(str(exc), EXIT_COMPLEMENT)
    except (SignatureMismatch, OpraError, OSError, IndexError) as exc:
        return _fail(str(exc))
    print(render(out))
    return EXIT_OK


def _read_query(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def cmd_embed(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if args.kind == "ecrpq":
            g = embed_ecrpq(doc["nodes"], [tuple(e) for e in doc["edges"]],
                            doc["alphabet"])
        else:
            g = embed_data_graph(doc["nodes"], [tuple(e) for e in doc["edges"]],
                                 doc["data"])
    except (OpraError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    print(json.dumps(graph_to_dict(g), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opra",
        description="Evaluate, translate and transform path queries on "
                    "integer-labelled graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a query on a graph")
    p.add_argument("graph", nargs="?", help="graph JSON file")
    p.add_argument("query", nargs="?", help="query file")
    p.add_argument("--demo", action="store_true",
                   help="use the bundled map graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-witness-len", type=int, default=None)
    p.add_argument("--counter-box", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="cross-check against the brute-force oracle")
    p.add_argument("graph", nargs="?")
    p.add_argument("query", nargs="?")
    p.add_argument("--demo", action="store_true")
    p.add_argument("--oracle-len", type=int, default=4)
    p.add_argument("--counter-box", type=int, default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("translate", help="translate a foreign query")
    p.add_argument("kind", choices=["ecrpq", "ecrpq-lc", "rdpa"])
    p.add_argument("input")
    p.add_argument("--dnf-limit", type=int, default=64)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("algebra", help="closure operations on query files")
    p.add_argument("op", choices=["project", "intersect", "union", "product",
                                  "complement", "ham", "dag", "unique"])
    p.add_argument("inputs", nargs="*")
    p.add_argument("--keep-nodes", default="")
    p.add_argument("--keep-paths", default="")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--graph", default=None)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("embed", help="standard embedding of a foreign graph")
    p.add_argument("kind", choices=["ecrpq", "data"])
    p.add_argument("input")
    p.set_defaults(fn=cmd_embed)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
