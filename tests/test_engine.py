"""Top-level evaluation: truth, answer sets, extrema and the agreement with
the brute-force reference on the query pool."""

import random
import threading
from dataclasses import replace
from itertools import product as iproduct

import pytest
from conftest import corpus_texts

from helpers import (
    bellman_ford_walk,
    certify_holds,
    dijkstra_walk,
    dijkstra_walk_above,
    pairs_within_budget,
    pool_queries,
    random_graph,
    random_route_graph,
    shortest_walk_within,
)

from opra import vass
from opra.bruteforce import atom_value, constrained_walks, holds_brute
from opra.engine import (
    Engine,
    EngineLimits,
    _Prepared,
    answers,
    extremal,
    holds,
)
from opra.errors import (
    BoundExhausted,
    RecursionLimit,
    UndefinedInfinitySum,
    UnknownNode,
    ValidationFailed,
)
from opra.graph import NEG_INF, POS_INF, Graph, Labelling
from opra.model import RAlt
from opra.parser import parse
from opra.render import render
from opra.terms import extend, register_function


class TestHolds:
    def test_q1(self, map_graph):
        q = parse(corpus_texts()["q1"])
        assert holds(q, map_graph, ("S", "P"))
        assert not holds(q, map_graph, ("W", "W"))

    def test_q3(self, map_graph):
        q = parse(corpus_texts()["q3"])
        assert holds(q, map_graph, ("S", "P"))

    def test_q6(self, map_graph):
        q = parse(corpus_texts()["q6"])
        assert holds(q, map_graph, ("S", "P"))

    def test_sink_only_graph(self):
        g = Graph([], [Labelling("E", 2, {}, 0)])
        q = parse("SELECT NODES x SUCH THAT x -[p]-> x : E")
        assert answers(q, g)[0] == set()

    def test_invalid_query_raises(self, map_graph):
        q = parse("SELECT NODES x SUCH THAT x -[p]-> x : nosuch")
        with pytest.raises(ValidationFailed):
            holds(q, map_graph, ("S",))

    def test_unknown_selected_node(self, map_graph):
        q = parse("SELECT NODES x, y SUCH THAT x -[pi]-> y : E")
        for sel in (("Z", "T"), ("S", "Z")):
            with pytest.raises(UnknownNode):
                holds(q, map_graph, sel)

    def test_bound_selected_paths(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        assert holds(q, map_graph, ("S", "P"), (("S", "T", "P"),))
        assert not holds(q, map_graph, ("S", "P"), (("S", "B", "P"),))


class TestRecursionGuard:
    def test_nested_evaluation_limit(self, map_graph):
        q = parse("LET c(x) := [SELECT NODES x SUCH THAT x -[p]-> y : E] IN "
                  "SELECT NODES x SUCH THAT x -[p]-> x : E "
                  "HAVING c[x] <= 0")
        engine = Engine(EngineLimits(recursion_limit=1))
        with pytest.raises(RecursionLimit):
            engine.holds(q, map_graph, ("S",))
        assert Engine().holds(q, map_graph, ("S",)) in (True, False)

    def test_every_entry_point_counts_its_level(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        engine = Engine(EngineLimits(recursion_limit=0))
        with pytest.raises(RecursionLimit):
            engine.holds(q, map_graph, ("S", "P"), (("S", "P"),))
        with pytest.raises(RecursionLimit):
            engine.answers(q, map_graph)
        with pytest.raises(RecursionLimit):
            engine.extremal("time", q, map_graph, {"x": "S", "y": "P"}, "min")


class TestConcurrentDepth:
    def test_threads_do_not_share_depth(self, map_graph):
        """A thread held inside a nested subquery does not count towards
        the nesting depth of another thread on the same engine."""
        entered, release = threading.Event(), threading.Event()

        def probe(value):
            if threading.current_thread().name == "held-in-subquery" \
                    and not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return value

        register_function("depth_probe", probe, arity=1)
        q = parse("LET c(x) := [LET h(z) := depth_probe(time(z)) IN "
                  "SELECT NODES x SUCH THAT x -[p]-> y : E "
                  "HAVING h[p] <= 1000] IN "
                  "SELECT NODES x SUCH THAT x -[p]-> x : E HAVING c[x] >= 1")
        engine = Engine(EngineLimits(recursion_limit=2))
        assert engine.holds(q, map_graph, ("S",))

        held = {}

        def run_held():
            try:
                held["result"] = engine.holds(q, map_graph, ("S",))
            except Exception as exc:  # reported by the assertion below
                held["result"] = exc

        thread = threading.Thread(target=run_held, name="held-in-subquery")
        thread.start()
        try:
            assert entered.wait(timeout=30)
            other = engine.holds(q, map_graph, ("S",))
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert other is True
        assert held["result"] is True


class TestLimits:
    """The engine's budget and counter box reach every search."""

    def test_config_budget_holds(self, map_graph):
        q = parse(corpus_texts()["q1"])
        assert Engine().holds(q, map_graph, ("S", "P"))
        with pytest.raises(BoundExhausted):
            Engine(EngineLimits(max_configs=5)).holds(q, map_graph, ("S", "P"))

    def test_counter_box_answers(self, map_graph):
        q = parse(corpus_texts()["q1"])
        assert answers(q, map_graph)[1]
        result, complete = \
            Engine(EngineLimits(counter_box=5)).answers(q, map_graph)
        assert not complete

    def test_config_budget_extremal(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        with pytest.raises(BoundExhausted):
            Engine(EngineLimits(max_configs=5)).extremal(
                "time", q, map_graph, {"x": "S", "y": "P"}, "min")


class TestCorpusSmoke:
    """Every bundled query evaluates on the map graph; spot results."""

    def test_whole_corpus_runs(self, map_graph):
        expectations = {
            "q2": lambda r: ("S", "T") in r,
            "q8": lambda r: r == set(),   # every pair's best is pumpable
            "q9": lambda r: r == {()},    # two paths sharing a node exist
            "q10": lambda r: r == set(),  # the map has no clubs
            "q_bidirectional": lambda r: ("S", "S") in r,
            # T's only in-edge is S->T, whose average 22.5 exceeds 5
            "q_average": lambda r: r == {("S", "S")},
        }
        for name, text in corpus_texts().items():
            q = parse(text)
            result, complete = answers(q, map_graph)
            assert complete, name
            nodes = {t for t, _ in result}
            check = expectations.get(name)
            if check is not None:
                assert check(nodes), (name, sorted(nodes))


class TestAnswers:
    def test_cycle_on_map(self, map_graph):
        q = parse(corpus_texts()["q_cycle"])
        result, complete = answers(q, map_graph)
        assert complete and result == {((), ())}

    def test_unsat_having(self, map_graph):
        q = parse("LET One(x) := 1 IN SELECT NODES x "
                  "SUCH THAT x -[p]-> x : E HAVING One[p] <= -1")
        result, complete = answers(q, map_graph)
        assert complete and result == set()

    def test_q6_answer_set(self, map_graph):
        q = parse(corpus_texts()["q6"])
        result, _ = answers(q, map_graph)
        nodes = {t for t, _ in result}
        assert ("S", "P") in nodes

    def test_witness_decodes_selected_paths(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        result, _ = answers(q, map_graph)
        by_pair = {t: w for t, w in result}
        witness = by_pair[("S", "P")]
        assert len(witness) == 1
        path = witness[0]
        assert path[0] == "S" and path[-1] == "P"

    def test_determinism(self, map_graph):
        q = parse(corpus_texts()["q1"])
        assert answers(q, map_graph) == Engine().answers(q, map_graph)


class TestExtremal:
    def test_min_time(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        assert extremal("time", q, map_graph, {"x": "S", "y": "P"}, "min") == 80

    def test_max_attr_unbounded(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        assert extremal("attr", q, map_graph,
                        {"x": "S", "y": "P"}, "max") is POS_INF

    def test_unknown_binding(self, map_graph):
        q = parse(corpus_texts()["q_route"])
        for bindings in ({"x": "Z", "y": "P"}, {"x": "S", "y": "Z"}):
            with pytest.raises(UnknownNode):
                extremal("time", q, map_graph, bindings, "min")

    def test_empty_conventions(self, map_graph):
        q = parse("LET One(x) := 1 IN SELECT NODES x, y, PATHS p "
                  "SUCH THAT x -[p]-> y : E HAVING One[p] <= -1")
        assert extremal("time", q, map_graph,
                        {"x": "S", "y": "P"}, "min") is POS_INF
        assert extremal("time", q, map_graph,
                        {"x": "S", "y": "P"}, "max") is NEG_INF

    def test_quantified_endpoint(self, map_graph):
        # minimum over all routes out of S: the one-node route (S) itself
        q = parse("SELECT NODES x, PATHS p SUCH THAT x -[p]-> y : E")
        assert extremal("time", q, map_graph, {"x": "S"}, "min") == 10


ROUTE = "SELECT NODES x, y, PATHS rho SUCH THAT x -[rho]-> y : E"


@pytest.fixture
def core_calls(monkeypatch):
    """The positional arguments of every counter search, in call order."""
    calls = []
    solve_core = vass.solve_core

    def spy(*args, **kwargs):
        calls.append(args)
        return solve_core(*args, **kwargs)

    monkeypatch.setattr(vass, "solve_core", spy)
    return calls


class TestExtremaAgainstReference:
    """Route extrema on seeded random graphs, three random successors per
    node, equal engine-free shortest and longest walk values."""

    def test_min_time_max_attr(self):
        q = parse(ROUTE)
        rng = random.Random(5)
        for _ in range(3):
            g = random_route_graph(rng)
            for _ in range(4):
                x, y = rng.choice(g.real_nodes), rng.choice(g.real_nodes)
                env = {"x": x, "y": y}
                assert extremal("time", q, g, env, "min") == \
                    dijkstra_walk(g, "time", x, y), (x, y)
                assert extremal("attr", q, g, env, "max") == \
                    bellman_ford_walk(g, "attr", x, y, "max"), (x, y)

    def test_negative_weights(self):
        """Min `attr` over every pair: finite values below zero on one
        graph, negative cycles (-inf) on the other."""
        q = parse(ROUTE)
        kinds = set()
        for attr in (("attr", -5, 40), ("attr", -20, 60)):
            g = random_route_graph(random.Random(5),
                                   labels=(("time", 1, 60), attr))
            for x in g.real_nodes:
                for y in g.real_nodes:
                    want = bellman_ford_walk(g, "attr", x, y, "min")
                    got = extremal("attr", q, g, {"x": x, "y": y}, "min")
                    assert got == want, (attr, x, y)
                    kinds.add("-inf" if want is NEG_INF else
                              "below zero" if want < 0 else "other")
        assert {"-inf", "below zero"} <= kinds

    def test_large_cyclic_region(self, core_calls):
        """Max `time` on about 2800 live product nodes is +inf; the parent
        pointers close the cycle long before walks grow |live| nodes."""
        q = parse(ROUTE)
        g = random_route_graph(random.Random(3), n=3000)
        for x, y in (("v000", "v005"), ("v001", "v007")):
            env = {"x": x, "y": y}
            assert extremal("time", q, g, env, "min") == \
                dijkstra_walk(g, "time", x, y)
            # a walk back from y closes a cycle through x and y
            assert dijkstra_walk(g, "time", y, x) is not POS_INF
            assert extremal("time", q, g, env, "max") is POS_INF
        assert core_calls == []

    def test_region_of_25000_nodes(self):
        """The live region is explored up to the configuration budget, so
        a region of tens of thousands of product nodes is decided."""
        q = parse(ROUTE)
        g = random_route_graph(random.Random(3), n=25000)
        assert extremal("time", q, g, {"x": "v000", "y": "v005"}, "min") \
            == dijkstra_walk(g, "time", "v000", "v005") == 209
        assert extremal("time", q, g, {"x": "v001", "y": "v007"},
                        "max") is POS_INF


class TestBoundedExtrema:
    """Extrema under finite bounds and over infinite weights: the label
    kernel decides them without a counter search."""

    def test_finite_bound(self, map_graph, core_calls):
        q = parse(ROUTE + " HAVING attr[rho] > 100")
        gx = extend(map_graph, ())
        walks = [p for p in constrained_walks(gx, map_graph, "S", "P", "E", 12)
                 if atom_value(gx, "attr", [p]) > 100]
        want = min(atom_value(gx, "time", [p]) for p in walks)
        # any longer walk takes more time: 12 nodes, then P itself
        fastest = min(gx.lookup("time", (v,)) for v in map_graph.real_nodes)
        assert want < 12 * fastest + gx.lookup("time", ("P",))
        assert extremal("time", q, map_graph,
                        {"x": "S", "y": "P"}, "min") == want
        assert core_calls == []

    def test_infinite_weight(self, core_calls):
        g = Graph(["a", "b", "c"], [
            Labelling("E", 2, {("a", "b"): 1, ("b", "c"): 1,
                               ("a", "c"): 1}, 0),
            Labelling("time", 1, {("a",): 1, ("b",): POS_INF,
                                  ("c",): 2}, 0)])
        q = parse(ROUTE)
        env = {"x": "a", "y": "c"}
        assert extremal("time", q, g, env, "min") == 3
        assert extremal("time", q, g, env, "max") is POS_INF
        assert core_calls == []

    def test_undefined_sum(self):
        """+inf then -inf along a->b->c->d: the min drops the run once it
        is +inf; the max meets the undefined sum."""
        g = Graph(["a", "b", "c", "d"], [
            Labelling("E", 2, {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1,
                               ("a", "d"): 1}, 0),
            Labelling("time", 1, {("a",): 1, ("b",): POS_INF,
                                  ("c",): NEG_INF, ("d",): 2}, 0)])
        q = parse(ROUTE)
        env = {"x": "a", "y": "d"}
        assert extremal("time", q, g, env, "min") == 3
        with pytest.raises(UndefinedInfinitySum):
            extremal("time", q, g, env, "max")

    def test_improving_cycle_beside_infinite_weight(self):
        """An improving cycle counts only on a run it can pump: every run
        through b's loop crosses x's +inf, and every run from c starts at
        -inf, so neither loop makes the extremum infinite."""
        g = Graph(["a", "b", "x", "t", "c"], [
            Labelling("E", 2, {("a", "b"): 1, ("b", "b"): 1, ("b", "x"): 1,
                               ("x", "t"): 1, ("a", "t"): 1, ("c", "t"): 1,
                               ("t", "t"): 1}, 0),
            Labelling("time", 1, {("a",): 1, ("b",): -1, ("x",): POS_INF,
                                  ("t",): 2, ("c",): NEG_INF}, 0),
            Labelling("w", 1, {("a",): 1}, 0)])
        for having in ("", " HAVING w[rho] <= 5"):
            q = parse(ROUTE + having)
            assert extremal("time", q, g, {"x": "a", "y": "t"}, "min") == 3
            assert extremal("time", q, g, {"x": "c", "y": "t"},
                            "max") is NEG_INF

    def test_route_under_attr_bound(self):
        """Min `time` under `attr > 100` for every ordered pair equals a
        Dijkstra over (node, `attr` total)."""
        q = parse(ROUTE + " HAVING attr[rho] > 100")
        g = random_route_graph(random.Random(5))
        got = {(x, y): extremal("time", q, g, {"x": x, "y": y}, "min")
               for x in g.real_nodes for y in g.real_nodes}
        assert got[("v000", "v005")] == 117
        assert got[("v003", "v011")] == 151
        assert got[("v001", "v007")] == 210
        for (x, y), value in got.items():
            assert value == dijkstra_walk_above(g, "time", "attr", 100,
                                                x, y, 1000), (x, y)


class TestPerSourceAnswers:
    """`answers` searches once per source when the selected target is only
    a path endpoint, and agrees with the per-tuple fold everywhere."""

    def test_one_search_per_source(self, map_graph, core_calls):
        texts = corpus_texts()
        result, complete = answers(parse(texts["q_route"]), map_graph)
        assert complete and len(result) == 25
        assert len(core_calls) == 5
        # q8 coerces y into a path position, q10 ends two paths at y
        for name in ("q8", "q10"):
            core_calls.clear()
            answers(parse(texts[name]), map_graph)
            assert len(core_calls) == 25, name

    def test_agrees_with_per_tuple_fold(self, monkeypatch):
        """Same node sets and `complete` flags as `Engine._find_answer` per
        tuple; under a tiny budget only undecided tuples may differ."""
        fallbacks = set()  # (query, exact) whose source search fell back
        case = [None]
        find_answer = Engine._find_answer

        def spy(engine, prepared, sel_env, max_witness_len):
            if case[0] is not None and prepared.open_target is not None:
                fallbacks.add(case[0])
            return find_answer(engine, prepared, sel_env, max_witness_len)

        monkeypatch.setattr(Engine, "_find_answer", spy)
        rng = random.Random(1010)
        graphs = [random_graph(rng, max_nodes=4, min_nodes=2)
                  for _ in range(8)]
        queries = []
        for name, q, _ in pool_queries():
            if not q.select_paths:
                # selecting the paths too makes every witness checkable
                queries += [(name, q),
                            (name, replace(q, select_paths=q.quantified_paths()))]
        for limits, exact in ((EngineLimits(), True),
                              (EngineLimits(max_configs=50), False)):
            engine = Engine(limits)
            for g_idx, g in enumerate(graphs):
                for name, q in queries:
                    case[0] = None
                    found, undecided = _per_tuple_fold(engine, q, g)
                    case[0] = (name, exact)
                    result, complete = engine.answers(q, g)
                    nodes = {t for t, _ in result}
                    where = (name, g_idx, limits)
                    if exact:
                        assert nodes == found and complete == (not undecided), \
                            where
                    else:
                        assert found <= nodes <= found | undecided, where
                        assert complete or undecided, where
                    if q.select_paths:
                        # every path is bound: checked at its own length
                        for sel, witness in result:
                            assert holds_brute(q, g, sel, witness), \
                                (where, sel)
        # the box clips sum-bound's negative cycles, and the tiny budget
        # cuts source searches short
        assert {("sum-bound", True), ("sum-bound", False)} <= fallbacks


def _per_tuple_fold(engine, q, g):
    """Tuples that `Engine._find_answer` answers, and those it leaves
    inconclusive."""
    prepared = _Prepared(q, engine._extend(q, g))
    found, undecided = set(), set()
    for sel in iproduct(g.real_nodes, repeat=len(q.select_nodes)):
        witness, ok = engine._find_answer(
            prepared, dict(zip(q.select_nodes, sel)), None)
        if witness is not None:
            found.add(sel)
        elif not ok:
            undecided.add(sel)
    return found, undecided


class TestLabelSearch:
    """`vass.solve_core` searches labels (product node, tracked values)
    first in, first out, and drops a new label when one kept at its node is
    no greater in every value."""

    # A2 graphs where a box of 8 used to leave some pool query inconclusive
    BOX_GRAPHS = (6, 22, 29, 65, 78, 79, 90, 91, 108, 118, 126, 134, 145)

    def test_small_box_keeps_answers(self):
        """A mixed-sign value below the box floor is clamped there, so the
        label that dominates the others at its node never leaves the box
        while they would have reached a final."""
        rng = random.Random(20260811)
        graphs = [random_graph(rng, max_nodes=5)
                  for _ in range(max(self.BOX_GRAPHS) + 1)]
        boxed = Engine(EngineLimits(counter_box=8))
        for g_idx in self.BOX_GRAPHS:
            g = graphs[g_idx]
            for name, q, _ in pool_queries():
                if not q.select_nodes:
                    continue
                want, complete = Engine().answers(q, g)
                assert complete, (name, g_idx)
                got, complete = boxed.answers(q, g)
                assert complete, (name, g_idx)
                assert {t for t, _ in got} == {t for t, _ in want}, \
                    (name, g_idx)

    def test_negative_cycle_behind_queued_label(self):
        """Each lap of a negative cycle brings a label that outdoes the
        queued one at its node before that one is expanded (A2 graph 22).
        Queued labels stay queued; dropping them as well as the values below
        the box floor loses an answer here."""
        edges = [("n0", "n0"), ("n0", "n3"), ("n1", "n1"), ("n1", "n2"),
                 ("n2", "n0"), ("n2", "n2"), ("n2", "n3"), ("n3", "n3")]
        g = Graph(["n0", "n1", "n2", "n3"], [
            Labelling("E", 2, {e: 1 for e in edges}, 0),
            Labelling("val", 1, {("n0",): 2, ("n1",): -3, ("n2",): -3,
                                 ("n3",): -3}, 0)])
        q = parse("SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                  "HAVING val[p] <= 2")
        result, complete = Engine().answers(q, g)
        assert complete and len(result) == 10

    def test_witnesses_are_shortest(self):
        """Pool graph 353: every witness has as few nodes as the shortest
        walk that meets the bound."""
        rng = random.Random(20260811)
        for _ in range(354):
            g = random_graph(rng, max_nodes=5)
        q = parse("SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
                  "HAVING val[p] <= 0")
        result, complete = Engine().answers(q, g)
        assert complete and len(result) == 25
        for (x, y), (path,) in result:
            assert holds_brute(q, g, (x, y), (path,)), (x, y)
            assert len(path) == shortest_walk_within(g, "val", 0, x, y, 64), \
                (x, y, path)

    def test_target_without_in_edges(self):
        """v005 has no in-edges, so no source search settles every target;
        dominance keeps the search that proves it small."""
        g = random_route_graph(random.Random(0), n=20)
        q = parse("SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
                  "HAVING time[pi] <= 300 AND attr[pi] > 150")
        result, complete = Engine().answers(q, g)
        assert complete and len(result) == 375
        assert {t for t, _ in result} == \
            pairs_within_budget(g, "time", 300, "attr", 150)


class TestQuantifierMonotonicity:
    def test_adding_alternative_never_shrinks(self):
        rng = random.Random(17)
        base = parse("SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                     "WHERE <val(p@0) > 0>*")
        extra = parse("SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                      "WHERE <val(p@0) > 0>* + <TOP> <TOP>*")
        for _ in range(10):
            g = random_graph(rng, max_nodes=4)
            small, _ = answers(base, g)
            large, _ = answers(extra, g)
            assert {t for t, _ in small} <= {t for t, _ in large}


class TestPoolAgainstBruteForce:
    """The central oracle-equivalence property on a quick sample; the full
    500-graph acceptance run lives in the acceptance suite."""

    def test_sample(self):
        rng = random.Random(4242)
        queries = pool_queries()
        for g_idx in range(25):
            g = random_graph(rng, max_nodes=4)
            for name, q, max_len in queries:
                if q.select_paths:
                    continue  # bound-path pool entries are checked below
                n = len(q.select_nodes)
                for sel in _tuples(g.real_nodes, n):
                    got = holds(q, g, sel)
                    want = holds_brute(q, g, sel, max_len=max_len)
                    if got:
                        # soundness: the engine's witness must check out
                        # against the direct constraint semantics
                        assert certify_holds(q, g, sel), (name, g_idx, sel)
                    else:
                        # completeness up to the enumeration horizon
                        assert not want, (name, g_idx, sel)

    def test_sample_bound_paths(self):
        rng = random.Random(777)
        queries = [(n, q, L) for n, q, L in pool_queries() if q.select_paths]
        from opra.bruteforce import all_paths
        for g_idx in range(8):
            g = random_graph(rng, max_nodes=3)
            for name, q, max_len in queries:
                for sel in _tuples(g.real_nodes, len(q.select_nodes)):
                    for p in all_paths(g.real_nodes, 3):
                        got = holds(q, g, sel, (p,))
                        want = holds_brute(q, g, sel, (p,), max_len=max_len)
                        assert got == want, (name, g_idx, sel, p)


def _tuples(pool, n):
    from itertools import product as iproduct
    return iproduct(pool, repeat=n)
