"""The benchmark's workloads: seeded inputs, operation lists and checks.

A workload writes its graph files from the seed, then, once `opra` is
imported, loads them, parses and validates its queries (the timed set-up)
and lists its operations.  Each operation is one public engine call; its
check compares the output with answers computed by `refcheck` (or, for the
corpus, by `opra.bruteforce`), never with stored output.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import refcheck
from refcheck import GraphData

CORPUS_BRUTE_LEN = 4  # path-length bound of the brute-force corpus oracle

REACH = "SELECT NODES x, y{paths} SUCH THAT x -[pi]-> y : E"
REGULAR = REACH + " WHERE <type(pi@0) != 6>*"
HAVING = REACH + " HAVING time[pi] <= {t} AND attr[pi] > {a}"
# the regular constraint states the premise of the DP checker (time >= 1)
# and gives the automaton layer work on this workload too
TIMED = REACH + " WHERE <time(pi@0) >= 1>*" \
    " HAVING time[pi] <= {t} AND attr[pi] > {a}"

ROUTE = "SELECT NODES x, y, PATHS rho SUCH THAT x -[rho]-> y : E"

# generator make-up: (node count, graphs per run)
REACH_SIZE = (26, 1)
ARITH_SIZE = (14, 6)
ARITH_BOUNDS = (200, 150)
POINT_SIZE = (160, 1)
POINT_PAIRS = 50
POINT_BOUNDS = (120, 60)
OUT_DEGREE = 3


class Op:
    """One engine call; `check(output)` tells whether its output is right."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


class Setup:
    """What the timed set-up produced: loaded graphs and parsed queries."""

    def __init__(self, opra, graphs, queries):
        self.opra = opra
        self.graphs = graphs
        self.queries = queries


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _spread(lo: int, hi: int, n: int):
    return [lo + ((hi - lo) * i) // (n - 1) for i in range(n)]


def random_graph_doc(rng: random.Random, n: int):
    """A graph document with every in- and out-degree equal to `OUT_DEGREE`.

    The edges are a random Hamiltonian cycle (so every node reaches every
    other) plus `OUT_DEGREE - 1` random permutations without self-loops or
    repeated edges.  `type`, `time` and `attr` each assign a shuffled,
    evenly spread value list: `type` 1-6, `time` 20-40, `attr` -5..40.
    """
    nodes = [f"v{i:03d}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for _ in range(OUT_DEGREE - 1):
        while True:
            perm = nodes[:]
            rng.shuffle(perm)
            new = list(zip(nodes, perm))
            if all(u != v and (u, v) not in edges for u, v in new):
                break
        edges.update(new)

    def unary(name, values):
        values = list(values)
        rng.shuffle(values)
        return {"name": name, "arity": 1, "default": 0,
                "entries": [[[v], x] for v, x in zip(nodes, values)]}

    return {
        "nodes": nodes,
        "labellings": [
            {"name": "E", "arity": 2, "default": 0,
             "entries": [[[u, v], 1] for u, v in sorted(edges)]},
            unary("type", [1 + i % 6 for i in range(n)]),
            unary("time", _spread(20, 40, n)),
            unary("attr", _spread(-5, 40, n)),
        ],
    }


def _write_graphs(outdir: Path, docs):
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = outdir / f"graph{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def _as_float(opra, value):
    if value is opra.POS_INF:
        return refcheck.POS_INF
    if value is opra.NEG_INF:
        return refcheck.NEG_INF
    return value


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.graph_paths = []
        self.graph_docs = []
        self.query_texts = []

    def setup(self, opra) -> Setup:
        """Load the graph files, parse and validate the queries."""
        from importlib import import_module

        graph_mod = import_module("opra.graph")
        parser_mod = import_module("opra.parser")
        model_mod = import_module("opra.model")
        graphs = [graph_mod.load_graph(p) for p in self.graph_paths]
        queries = [parser_mod.parse(t) for t in self.query_texts]
        for g in graphs:
            schema = g.schema()
            for q in queries:
                model_mod.require_valid(q, schema)
        return Setup(opra, graphs, queries)

    def operations(self, s: Setup, engine):
        raise NotImplementedError

    def _random_graphs(self, size, outdir: Path):
        n, count = size
        self.graph_docs = [random_graph_doc(self.rng, n) for _ in range(count)]
        self.graph_paths = _write_graphs(outdir, self.graph_docs)


def _answer_check(expected, walk_ok):
    """Exact answer set, conclusive, every witness walk valid."""

    def check(output):
        result, complete = output
        if not complete:
            return False
        if {sel for sel, _ in result} != expected:
            return False
        return all(walk_ok(sel, witness[0]) for sel, witness in result)

    return check


class ReachAllPairs(Workload):
    name = "reach-all-pairs"

    def __init__(self, seed, outdir):
        super().__init__(seed)
        self._random_graphs(REACH_SIZE, outdir)
        self.query_texts = [REACH.format(paths=", PATHS pi"),
                            REGULAR.format(paths=", PATHS pi")]

    def operations(self, s, engine):
        ops = []
        for g, doc in zip(s.graphs, self.graph_docs):
            gd = GraphData(doc)
            plain = refcheck.reach_pairs(gd)
            allowed = {v for v in gd.nodes if gd.labels["type"][v] != 6}
            regular = refcheck.reach_pairs(gd, allowed)
            for q, expected, walk_allowed, label in (
                    (s.queries[0], plain, None, "reach"),
                    (s.queries[1], regular, allowed, "regular")):
                ops.append(Op(
                    label,
                    lambda q=q, g=g: engine.answers(q, g),
                    _answer_check(expected,
                                  lambda sel, w, a=walk_allowed, gd=gd:
                                  refcheck.walk_ok(gd, w, *sel, a))))
        return ops


class ArithAllPairs(Workload):
    name = "arith-all-pairs"

    def __init__(self, seed, outdir):
        super().__init__(seed)
        self._random_graphs(ARITH_SIZE, outdir)
        t, a = ARITH_BOUNDS
        self.query_texts = [TIMED.format(paths=", PATHS pi", t=t, a=a)]

    def operations(self, s, engine):
        t, a = ARITH_BOUNDS
        ops = []
        for g, doc in zip(s.graphs, self.graph_docs):
            gd = GraphData(doc)
            expected = refcheck.having_pairs(gd, t, a)

            def walk_ok(sel, w, gd=gd):
                return refcheck.walk_ok(gd, w, *sel) \
                    and refcheck.walk_sum(gd, "time", w) <= t \
                    and refcheck.walk_sum(gd, "attr", w) > a

            ops.append(Op("having",
                          lambda q=s.queries[0], g=g: engine.answers(q, g),
                          _answer_check(expected, walk_ok)))
        return ops


class PointHolds(Workload):
    name = "point-holds"

    def __init__(self, seed, outdir):
        super().__init__(seed)
        self._random_graphs(POINT_SIZE, outdir)
        self.pairs = [[tuple(self.rng.sample(doc["nodes"], 2))
                       for _ in range(POINT_PAIRS)] for doc in self.graph_docs]
        t, a = POINT_BOUNDS
        self.query_texts = [REACH.format(paths=""), REGULAR.format(paths=""),
                            HAVING.format(paths="", t=t, a=a)]

    def operations(self, s, engine):
        t, a = POINT_BOUNDS
        ops = []
        for g, doc, pairs in zip(s.graphs, self.graph_docs, self.pairs):
            gd = GraphData(doc)
            allowed = {v for v in gd.nodes if gd.labels["type"][v] != 6}
            for x, y in pairs:
                expected = (
                    y in refcheck.reach_from(gd, x),
                    y in refcheck.reach_from(gd, x, allowed),
                    y in refcheck.having_from(gd, x, t, a),
                )
                for q, want, label in zip(s.queries, expected,
                                          ("reach", "regular", "having")):
                    ops.append(Op(
                        f"{label} {x} {y}",
                        lambda q=q, g=g, x=x, y=y: engine.holds(q, g, (x, y)),
                        lambda out, want=want: out is want))
        return ops


class CorpusMap(Workload):
    """Every corpus query plus min `time` / max `attr` route extrema for all
    ordered pairs, on the bundled map graph.  The graph and the queries are
    fixed; the seed only shuffles the operation order."""

    name = "corpus-map"

    def __init__(self, seed, data_dir: Path):
        super().__init__(seed)
        self.graph_paths = [data_dir / "map_graph.json"]
        self.graph_docs = [json.loads(self.graph_paths[0].read_text("utf-8"))]
        corpus = sorted((data_dir / "corpus").glob("*.opra"))
        self.corpus_names = [p.stem for p in corpus]
        self.query_texts = [p.read_text("utf-8") for p in corpus] + [ROUTE]

    def operations(self, s, engine):
        opra = s.opra
        g, gd = s.graphs[0], GraphData(self.graph_docs[0])
        ops = []
        for name, q in zip(self.corpus_names, s.queries):
            ops.append(Op(name, lambda q=q: engine.answers(q, g),
                          self._corpus_check(opra, name, q, g, gd)))
        route = s.queries[-1]
        for x in gd.nodes:
            least = refcheck.min_sum(gd, "time", x)
            for y in gd.nodes:
                most = refcheck.max_sum(gd, "attr", x, y)
                ops.append(Op(
                    f"min time {x} {y}",
                    lambda x=x, y=y: engine.extremal(
                        "time", route, g, {"x": x, "y": y}, "min"),
                    lambda out, want=least[y]: _as_float(opra, out) == want))
                ops.append(Op(
                    f"max attr {x} {y}",
                    lambda x=x, y=y: engine.extremal(
                        "attr", route, g, {"x": x, "y": y}, "max"),
                    lambda out, want=most: _as_float(opra, out) == want))
        random.Random(self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _exact(name, gd):
        """Answer sets recomputed by graph algorithms, where one applies."""
        if name == "q_route":
            return refcheck.reach_pairs(gd)
        if name == "q1":
            return refcheck.having_pairs(gd, 360, 100)
        if name == "q_average":
            # attr > 0 on every node and attr[pi] - 5 * |pi| <= 0
            allowed = {v for v in gd.nodes if gd.labels["attr"][v] > 0}
            excess = {v: gd.labels["attr"][v] - 5 for v in gd.nodes}
            return {(x, y) for x in gd.nodes for y in gd.nodes
                    if refcheck.min_walk_sum(gd, excess, x, y, allowed) <= 0}
        if name == "q_cycle":
            return {()} if refcheck.has_cycle(gd) else set()
        return None

    def _corpus_check(self, opra, name, q, g, gd):
        from importlib import import_module

        brute = import_module("opra.bruteforce")
        state = {}

        def check(output):
            result, complete = output
            if not complete:
                return False
            nodes = {sel for sel, _ in result}
            if "lower" not in state:
                state["lower"] = brute.answers_brute(
                    q, g, max_len=CORPUS_BRUTE_LEN)
                state["exact"] = self._exact(name, gd)
            if not state["lower"] <= nodes:
                return False
            if state["exact"] is not None and nodes != state["exact"]:
                return False
            for sel, witness in result:
                if not q.select_paths:
                    continue
                longest = max(len(p) for p in witness)
                if not brute.holds_brute(q, g, sel, witness, max_len=longest):
                    return False
            return True

        return check


def make(name: str, seed: int, outdir: Path, data_dir: Path) -> Workload:
    if name == CorpusMap.name:
        return CorpusMap(seed, data_dir)
    for cls in (ReachAllPairs, ArithAllPairs, PointHolds):
        if cls.name == name:
            return cls(seed, outdir)
    raise KeyError(name)


NAMES = (CorpusMap.name, ReachAllPairs.name, ArithAllPairs.name,
         PointHolds.name)
