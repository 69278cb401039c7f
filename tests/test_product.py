"""The lazy answer graph: transitions, weights, decoding, and exact
agreement with the direct matcher."""

import random
from itertools import product as iproduct

import pytest

from helpers import has_bound_run, prepare, random_graph

from opra.bruteforce import answers_brute, check_instantiation
from opra.engine import Engine, _Prepared, answers, holds
from opra.errors import NotAWitness
from opra.graph import NEG_INF, POS_INF, SINK, Graph, Labelling, comb
from opra.model import regex_variables
from opra.nfa import match_direct
from opra.parser import parse
from opra.product import OPEN, COUNTER_INF, AnswerOracle, ProductNode
from opra.terms import extend
from opra import vass


def make_oracle(text, g, env=None, bound_paths=None, free=None):
    q = parse(text)
    eng = Engine()
    gx = extend(g, q.ontologies, engine=eng)
    prep = _Prepared(q, gx)
    env = dict(env or {})
    bound_paths = dict(bound_paths or {})
    if free is None:
        free = list(q.quantified_paths())
        free += [p for p in q.select_paths if p not in bound_paths]
    core = prep.core(env, bound_paths, free)
    return AnswerOracle(core, gx), prep, q


@pytest.fixture
def ab_graph():
    return Graph(["a", "b"], [Labelling("E", 2, {("a", "b"): 1}, 0)])


class TestBuild:
    def test_initials_and_finals(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        inits = list(o.initials())
        assert inits == [ProductNode((), 1, ("a",), ())]
        final = ProductNode((), COUNTER_INF, (SINK,), ())
        assert o.is_final(final)
        assert not o.is_final(inits[0])

    def test_empty_graph_no_initials(self):
        g = Graph([], [Labelling("E", 2, {}, 0)])
        o, _, _ = make_oracle(
            "SELECT () SUCH THAT x -[p]-> x : E", g, env={"x": SINK})
        # source nodes cannot be the sink: no feasible start
        assert o.is_initial(ProductNode((), 1, (SINK,), ())) is False

    def test_bound_path_spelling(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"}, bound_paths={"p": ("a", "b")}, free=[])
        run = list(o.initials())
        assert run[0].nodes == ("a",)
        nxt = list(o.successors(run[0]))
        assert all(u.nodes == ("b",) for u in nxt)
        last = list(o.successors(nxt[0]))
        assert all(u.nodes == (SINK,) for u in last)


class TestIsEdge:
    def test_step(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E WHERE <TOP>*",
            ab_graph, env={"x": "a", "y": "b"})
        u = next(iter(o.initials()))
        w = ProductNode(u.states, COUNTER_INF, ("b",), ())
        assert o.is_edge(u, w)

    def test_counter_violation(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        u = next(iter(o.initials()))
        w = ProductNode((), 1, ("b",), ())  # counter must advance
        assert not o.is_edge(u, w)

    def test_no_restart_after_termination(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        u = ProductNode((), COUNTER_INF, (SINK,), ())
        w = ProductNode((), COUNTER_INF, ("a",), ())
        assert not o.is_edge(u, w)

    def test_counter_absorbing(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        u = ProductNode((), COUNTER_INF, (SINK,), ())
        for w in o.successors(u):
            assert w.counter == COUNTER_INF


class TestWeights:
    def test_q1_time_at_T(self, map_graph):
        o, prep, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 360 AND attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        u = ProductNode((), COUNTER_INF, ("T",), ())
        w = o.weights(u)
        assert w[0] == 10  # time dimension
        assert w[1] == -40  # normalized -attr dimension

    def test_all_sink_is_zero(self, map_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 360 AND attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        u = ProductNode((), COUNTER_INF, (SINK,), ())
        assert o.weights(u) == (0, 0)

    def test_attr_sign_normalization_at_B(self, map_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        u = ProductNode((), COUNTER_INF, ("B",), ())
        assert o.weights(u) == (2,)  # -attr(B) = 2

    def test_one_slot_range_is_exact(self):
        """Every step adds w - u = -1 or -4, or 0 once the path has ended;
        adding up each term's extremes would read (-4, 2)."""
        g = Graph(["n0", "n1"], [
            Labelling("E", 2, {("n0", "n1"): 1, ("n1", "n0"): 1,
                               ("n1", "n1"): 1}, 0),
            Labelling("w", 1, {("n0",): 2, ("n1",): -1}, 0),
            Labelling("u", 1, {("n0",): 3, ("n1",): 3}, 0),
        ])
        text = "SELECT NODES x, y SUCH THAT x -[p]-> y : E HAVING w[p] - u[p]"
        o, _, _ = make_oracle(text + " <= 5", g, env={"x": "n0", "y": "n1"})
        assert o.weight_ranges() == [(-4, 0)]
        for bound in (" <= 5", " <= -5", " <= -9"):
            q = parse(text + bound)
            got, complete = answers(q, g)
            assert complete, bound
            assert {t for t, _ in got} == answers_brute(q, g, max_len=6), bound


class TestSuccessors:
    def test_matches_is_edge_filter(self):
        rng = random.Random(23)
        for _ in range(8):
            g = random_graph(rng, max_nodes=3, min_nodes=2)
            o, _, _ = make_oracle(
                "SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                "WHERE <val(p@0) > 0>*",
                g, env={"x": g.real_nodes[0], "y": g.real_nodes[-1]})
            u = next(iter(o.initials()), None)
            if u is None:
                continue
            got = set(o.successors(u))
            candidates = set()
            values = [SINK] + list(g.real_nodes)
            for v in values:
                for s in range(2):
                    w = ProductNode((s,) if u.states else (), COUNTER_INF,
                                    (v,), ())
                    if len(w.states) == len(u.states) and o.is_edge(u, w):
                        candidates.add(w)
            # restrict to well-formed states actually present in the automaton
            assert got == {w for w in candidates if o.is_edge(u, w)}

    def test_terminal_all_sink_stays(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        u = ProductNode((), COUNTER_INF, (SINK,), ())
        assert {w.nodes for w in o.successors(u)} == {(SINK,)}

    def test_next_blind_letter_decided_once(self):
        """A letter that reads no next position is evaluated once per
        expanded node, not once per next-node candidate."""
        g = Graph(["a", "b", "c"], [Labelling(
            "E", 2, {("a", "a"): 1, ("a", "b"): 1, ("a", "c"): 1}, 0)])
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E "
            "WHERE <E(p@0, p@0) = 1>*", g, env={"x": "a", "y": "c"})
        u = next(iter(o.initials()))
        calls = []
        moves = o._moves
        o._moves = lambda ai, u, nxt: calls.append(ai) or moves(ai, u, nxt)
        assert {w.nodes for w in o.successors(u)} == {("a",), ("b",), ("c",)}
        assert calls == [0]

    def test_dead_step_scans_no_candidates(self, ab_graph):
        """After its one letter the automaton has only the padding move, so
        a node whose path still runs has no successor, found without
        scanning the next nodes (the letter reads one, so the automaton
        cannot be decided before the scan)."""
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E "
            "WHERE <E(p@0, p@1) = 1>", ab_graph, env={"x": "a", "y": "b"})
        u = next(iter(o.initials()))
        w = next(w for w in o.successors(u) if w.nodes == ("b",))
        scanned = []
        o._free_slot_candidates = lambda slot, cur: scanned.append(cur) or []
        assert o.successors(w) == () and not scanned


class TestOutNeighbourIndex:
    """Successor candidates read from the base graph's out-neighbour index
    equal those of the full scan, which ontology-defined edge labellings
    still take; so do the answers and their witnesses."""

    # labelling -> (entry values, default); Z stores zeros, I infinities,
    # D has a nonzero default and no index, so both sides scan
    LABELLINGS = {"Z": ((0, 1, -2), 0), "I": ((POS_INF, NEG_INF, 0, 3), 0),
                  "D": ((0, 0, 5), 1)}
    EDGES = ["Z", "I", "D", "Z AND x -[p]-> y : I"]

    def _graph(self, rng):
        nodes = [f"n{i}" for i in range(rng.randint(1, 5))]
        labs = [Labelling(name, 2, {(u, v): rng.choice(values)
                                    for u in nodes for v in nodes
                                    if rng.random() < 0.5}, default)
                for name, (values, default) in self.LABELLINGS.items()]
        return Graph(nodes, labs)

    def _queries(self, edges):
        indexed = f"SELECT NODES x, y SUCH THAT x -[p]-> y : {edges}"
        first, _, rest = edges.partition(" ")
        scanned = (f"LET F(x, y) := {first}(x, y) IN SELECT NODES x, y "
                   f"SUCH THAT x -[p]-> y : F {rest}")
        return indexed, scanned

    def test_index_agrees_with_scan(self):
        rng = random.Random(61)
        for _ in range(30):
            g = self._graph(rng)
            n0 = g.real_nodes[0]
            assert g.out_neighbours("I", n0) is not None
            assert g.out_neighbours("D", n0) is None
            for edges in self.EDGES:
                indexed, scanned = self._queries(edges)
                for x in g.real_nodes:
                    for y in (x, g.real_nodes[-1]):
                        env = {"x": x, "y": y}
                        o1, _, _ = make_oracle(indexed, g, env=env)
                        o2, _, _ = make_oracle(scanned, g, env=env)
                        for cur in g.real_nodes:
                            assert o1._free_slot_candidates(o1.slots[0], cur) \
                                == o2._free_slot_candidates(o2.slots[0], cur), \
                                (edges, env, cur)
                assert answers(parse(indexed), g) == \
                    answers(parse(scanned), g), edges


class TestDecode:
    def test_ab_run(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        u = next(iter(o.initials()))
        v = next(iter(o.successors(u)))
        w = next(iter(o.successors(v)))
        assert o.decode([u, v, w]) == (("a", "b"),)

    def test_empty_slot_decodes_empty(self, ab_graph):
        o, _, _ = make_oracle("SELECT PATHS p", ab_graph, free=["p"])
        u = ProductNode((), 1, (SINK,), ())
        v = ProductNode((), COUNTER_INF, (SINK,), ())
        assert o.is_initial(u) and o.is_final(v)
        assert o.decode([u, v]) == ((),)

    def test_not_a_witness(self, ab_graph):
        o, _, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[p]-> y : E", ab_graph,
            env={"x": "a", "y": "b"})
        u = next(iter(o.initials()))
        with pytest.raises(NotAWitness):
            o.decode([u])  # does not end in a final node

    def test_roundtrip_via_search(self, map_graph):
        o, prep, _ = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 360 AND attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        res = vass.solve_core(o, prep.bounds)
        assert res.status == vass.FOUND
        decoded = o.decode(res.witness)
        assert decoded[0][0] == "S" and decoded[0][-1] == "P"


class TestOpenTarget:
    """A path whose target is left open ends anywhere; the product node
    remembers where once the path has finished."""

    def test_end_remembered(self):
        g = Graph(["a", "b", "c"], [Labelling(
            "E", 2, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}, 0)])
        o, _, _ = make_oracle("SELECT NODES x, y SUCH THAT x -[p]-> y : E",
                              g, env={"x": "a", "y": OPEN})
        u = next(iter(o.initials()))
        assert u.end is None
        ends = {}
        for w in o.successors(u):
            assert o.is_edge(u, w)
            ends[w.nodes] = w.end
        assert ends == {(SINK,): "a", ("b",): None, ("c",): None}
        b = ProductNode((), COUNTER_INF, ("b",), ())
        (done,) = [w for w in o.successors(b) if w.nodes == (SINK,)]
        assert done.end == "b" and o.is_final(done)
        # finished elsewhere: the same slots and counter, another node
        assert done != ProductNode((), COUNTER_INF, (SINK,), (), "a")
        assert not o.is_edge(b, ProductNode((), COUNTER_INF, (SINK,), (), "a"))
        assert [w.end for w in o.successors(done)] == ["b"]

    def test_one_run_per_end(self, map_graph):
        text = ("SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
                "HAVING time[pi] <= 360 AND attr[pi] > 100")
        for x, unreached in (("S", set()), ("W", {"W"})):
            o, prep, q = make_oracle(text, map_graph, env={"x": x, "y": OPEN})
            res = vass.solve_core(o, prep.bounds)
            assert res.status == vass.FOUND and not res.clipped
            assert set(res.runs) == {y for y in map_graph.real_nodes
                                     if holds(q, map_graph, (x, y))}
            assert set(res.runs) == set(map_graph.real_nodes) - unreached
            for end, run in res.runs.items():
                (path,) = o.decode(run)
                assert path[0] == x and path[-1] == end


class TestSoundnessCompleteness:
    """Exhaustive: an S-to-T run decoding to the tuple exists iff the tuple
    satisfies the path and regular constraints directly."""

    QUERIES_1 = [
        "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E",
        "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
        "WHERE <val(p@0) > 0>*",
        "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
        "WHERE <E(p@+1, p@0)>* <TOP>",
        "SELECT PATHS p WHERE <TOP> <TOP> <TOP>*",
    ]

    def _all_paths(self, nodes, max_len):
        out = [()]
        layer = [()]
        for _ in range(max_len):
            layer = [p + (v,) for p in layer for v in nodes]
            out.extend(layer)
        return out

    def test_one_path_exhaustive(self):
        rng = random.Random(31)
        g = random_graph(rng, max_nodes=4, min_nodes=4)
        paths = self._all_paths(g.real_nodes, 5)
        for text in self.QUERIES_1:
            q, gx, prep, gx_direct = prepare(text, g)
            pvar = q.select_paths[0]
            envs = [{}]
            if q.select_nodes:
                envs = [{"x": x, "y": y}
                        for x in g.real_nodes for y in g.real_nodes]
            for env in envs:
                for p in paths:
                    product_sat = has_bound_run(gx, prep, env, {pvar: p})
                    direct = check_instantiation(q, gx_direct, env, {pvar: p})
                    assert product_sat == direct, (text, env, p)

    def test_two_paths_exhaustive(self):
        rng = random.Random(37)
        g = random_graph(rng, max_nodes=3, min_nodes=3, edge_density=0.5)
        text = ("SELECT NODES x, y, PATHS p, q SUCH THAT x -[p]-> y : E "
                "AND x -[q]-> y : E WHERE <p@0 = q@0 && p@0 != SINK> <TOP>*")
        q, gx, prep, gx_direct = prepare(text, g)
        paths = self._all_paths(g.real_nodes, 3)
        for x in g.real_nodes:
            for y in g.real_nodes:
                env = {"x": x, "y": y}
                for p1 in paths:
                    for p2 in paths:
                        bound = {"p": p1, "q": p2}
                        product_sat = has_bound_run(gx, prep, env, bound)
                        direct = check_instantiation(q, gx_direct, env, bound)
                        assert product_sat == direct, (env, p1, p2)


class TestLaziness:
    def test_touches_tiny_fraction(self):
        nodes = [f"n{i}" for i in range(20)]
        g = Graph(nodes, [Labelling("E", 2, {}, 0)])
        text = "SELECT () WHERE <TOP>*(p1) AND <TOP>*(p2) AND <TOP>*(p3)"
        # attach the three stars to three quantified paths explicitly
        text = ("SELECT () WHERE <TOP && p1@0 = p1@0>* AND "
                "<TOP && p2@0 = p2@0>* AND <TOP && p3@0 = p3@0>*")
        o, prep, _ = make_oracle(text, g)
        res = vass.solve_core(o, prep.bounds)
        assert res.status == vass.FOUND
        assert o.touch_count < 0.01 * o.state_space_size()
