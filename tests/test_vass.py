"""Z-reachability, the constrained search over the lazy answer graph, brute
force and extremal values with unboundedness detection."""

import random

import pytest

from helpers import random_graph, vass_reach_oracle

from opra.bruteforce import extremal_brute
from opra.engine import Engine, _Prepared
from opra.errors import BoundExhausted, DimensionMismatch
from opra.graph import NEG_INF, POS_INF, Graph, Labelling
from opra.parser import parse
from opra.product import AnswerOracle
from opra.terms import extend
from opra.vass import (
    BOUND_EXHAUSTED,
    Configuration,
    EMPTY,
    FOUND,
    UNREACHABLE,
    Vass,
    WITNESS,
    brute_force,
    emptiness,
    extremal,
    find_witness,
    replay,
    z_reachable,
)


def make_oracle(text, g, env=None, bound_paths=None, objective=None):
    q = parse(text)
    eng = Engine()
    gx = extend(g, q.ontologies, engine=eng)
    prep = _Prepared(q, gx)
    bound = dict(bound_paths or {})
    free = [p for p in list(q.quantified_paths()) + list(q.select_paths)
            if p not in bound]
    core = prep.core(dict(env or {}), bound, free, objective)
    return AnswerOracle(core, gx), prep


class TestZReachable:
    def test_empty_path(self):
        v = Vass(("v",), (), 1)
        res = z_reachable(v, Configuration("v", (0,)), Configuration("v", (0,)))
        assert res.status == WITNESS and res.witness == []

    def test_three_loops(self):
        v = Vass(("v",), (("v", (1,), "v"),), 1)
        res = z_reachable(v, Configuration("v", (0,)), Configuration("v", (3,)))
        assert res.status == WITNESS
        assert len(res.witness) == 3
        assert replay(res.witness, Configuration("v", (0,))) == \
            Configuration("v", (3,))

    def test_unreachable(self):
        v = Vass(("v",), (("v", (1,), "v"),), 1)
        res = z_reachable(v, Configuration("v", (0,)),
                          Configuration("v", (-2,)))
        assert res.status == UNREACHABLE

    def test_negative_intermediate_allowed(self):
        v = Vass(("a", "b"), (("a", (-5,), "b"), ("b", (5,), "a")), 1)
        res = z_reachable(v, Configuration("a", (0,)), Configuration("a", (0,)))
        assert res.status == WITNESS and len(res.witness) in (0, 2)

    def test_successors_in_edge_order(self):
        edges = (("a", (1,), "b"), ("b", (2,), "a"), ("a", (3,), "a"))
        v = Vass(("a", "b", "c"), edges, 1)
        assert v.successors("a") == [((1,), "b"), ((3,), "a")]
        assert v.successors("c") == []
        assert v == Vass(("a", "b", "c"), edges, 1)

    def test_dimension_mismatch(self):
        v = Vass(("v",), (), 2)
        with pytest.raises(DimensionMismatch):
            z_reachable(v, Configuration("v", (0,)), Configuration("v", (0, 0)))

    def test_length_bound_exhausts(self):
        v = Vass(("v",), (("v", (1,), "v"),), 1)
        res = z_reachable(v, Configuration("v", (0,)),
                          Configuration("v", (10,)), length_bound=3)
        assert res.status == BOUND_EXHAUSTED

    def test_against_enumeration_oracle(self):
        rng = random.Random(2024)
        agreements = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            d = rng.randint(1, 3)
            nodes = tuple(f"q{i}" for i in range(n))
            edges = []
            for _ in range(rng.randint(0, 6)):
                u = rng.choice(nodes)
                w = rng.choice(nodes)
                vec = tuple(rng.randint(-2, 2) for _ in range(d))
                edges.append((u, vec, w))
            v = Vass(nodes, tuple(edges), d)
            src = Configuration(rng.choice(nodes),
                                tuple(rng.randint(-1, 1) for _ in range(d)))
            dst = Configuration(rng.choice(nodes),
                                tuple(rng.randint(-2, 2) for _ in range(d)))
            res = z_reachable(v, src, dst, box=50)
            want = vass_reach_oracle(v, src, dst, box=50)
            if res.status == WITNESS:
                assert replay(res.witness, src) == dst
                assert want is True or want is None
            elif res.status == UNREACHABLE:
                # the solver may out-prove the plain oracle, never contradict it
                assert want is not True
            if want is True:
                assert res.status == WITNESS
            elif want is False:
                assert res.status == UNREACHABLE
            agreements += 1
        assert agreements == 200


class TestLazyReduction:
    """The constrained search over the lazy answer graph: a feasible run
    exists exactly when the decoded witness satisfies the query."""

    def test_matches_solver_on_map(self, map_graph):
        o, prep = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 360 AND attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        (path,) = find_witness(o, prep.bounds)
        assert path[0] == "S" and path[-1] == "P"
        assert all(map_graph.lookup("E", step) != 0
                   for step in zip(path, path[1:]))
        assert sum(map_graph.lookup("time", (v,)) for v in path) <= 360
        assert sum(map_graph.lookup("attr", (v,)) for v in path) > 100
        assert not emptiness(o, prep.bounds)

    def test_unsat_agrees(self, map_graph):
        o, prep = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 50 AND attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        assert emptiness(o, prep.bounds)

    def test_no_initials(self):
        g = Graph(["a"], [Labelling("E", 2, {}, 0)])
        o, prep = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E HAVING time2[pi] <= 0",
            Graph(["a"], [Labelling("E", 2, {}, 0),
                          Labelling("time2", 1, {}, 0)]),
            env={"x": "a", "y": "a"})
        # single node, no self loop: only the one-node path remains
        assert find_witness(o, (0,)) == (("a",),)  # zero weight
        assert not emptiness(o, (0,))

    def test_zero_weight_accept(self):
        g = Graph(["a"], [Labelling("E", 2, {("a", "a"): 1}, 0),
                          Labelling("w", 1, {}, 0)])
        o, prep = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E HAVING w[pi] <= 0",
            g, env={"x": "a", "y": "a"})
        (path,) = find_witness(o, (0,))
        assert set(path) == {"a"}
        assert not emptiness(o, (0,))


class TestEmptinessAndBrute:
    def test_time_dimension_along_stp(self, map_graph):
        o, prep = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 360", map_graph, env={"x": "S", "y": "P"},
            bound_paths={"pi": ("S", "T", "P")})
        for decoded, vec in brute_force(o, prep.bounds, max_len=3):
            assert decoded == (("S", "T", "P"),)
            assert vec[0] == 80
            break
        else:
            raise AssertionError("no witness replayed")

    def test_q1_witness(self, map_graph):
        o, prep = make_oracle(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING time[pi] <= 360 AND attr[pi] > 100",
            map_graph, env={"x": "S", "y": "P"})
        witnesses = list(brute_force(o, prep.bounds, max_len=7))
        assert (("S", "T", "P", "B", "S", "T", "P"),) in \
            [w for w, _ in witnesses]

    def test_unsat_constant(self, map_graph):
        o, prep = make_oracle(
            "LET One(x) := 1 IN SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "HAVING One[pi] <= -1", map_graph, env={"x": "S", "y": "P"})
        assert emptiness(o, prep.bounds)
        assert list(brute_force(o, prep.bounds, max_len=6)) == []

    def test_brute_agrees_with_emptiness_random(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_graph(rng, max_nodes=4)
            x = rng.choice(g.real_nodes)
            y = rng.choice(g.real_nodes)
            bound = rng.randint(-2, 4)
            o, prep = make_oracle(
                f"SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                f"HAVING val[p] <= {bound}", g, env={"x": x, "y": y})
            empty = emptiness(o, prep.bounds)
            brute = list(brute_force(o, prep.bounds, max_len=2 * len(g.real_nodes) + 2))
            if brute:
                assert not empty
            # engine-empty means the bounded brute force finds nothing
            if empty:
                assert not brute

    def test_monotone_in_bound(self):
        rng = random.Random(7)
        for _ in range(15):
            g = random_graph(rng, max_nodes=4)
            x = rng.choice(g.real_nodes)
            y = rng.choice(g.real_nodes)
            o, prep = make_oracle(
                "SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                "HAVING val[p] <= 0", g, env={"x": x, "y": y})
            tight = emptiness(o, (0,))
            loose = emptiness(o, (3,))
            if not tight:
                assert not loose

    def test_certificate_after_clipping(self):
        """The box clips `u`, which the b-c cycle lowers without end; every
        run has `w` total 6, so the certificate decides on `w` alone."""
        g = Graph(["a", "b", "c"], [
            Labelling("E", 2, {("a", "b"): 1, ("b", "c"): 1,
                               ("c", "b"): 1}, 0),
            Labelling("w", 1, {("a",): 5, ("b",): 1, ("c",): -1}, 0),
            Labelling("u", 1, {("c",): -1}, 0)])
        text = ("SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                "HAVING w[p] <= {} AND u[p] <= {}")
        env = {"x": "a", "y": "b"}
        o, prep = make_oracle(text.format(5, 100), g, env=env)
        assert emptiness(o, prep.bounds, box=20)
        # w <= 6 is met, u <= -1000 lies past the box: undecided
        o, prep = make_oracle(text.format(6, -1000), g, env=env)
        with pytest.raises(BoundExhausted):
            emptiness(o, prep.bounds, box=20)

    def test_max_len_zero(self):
        g = Graph(["a"], [Labelling("E", 2, {}, 0)])
        o, prep = make_oracle("SELECT PATHS p", g)
        got = list(brute_force(o, (), max_len=0))
        assert ((),) in [w for w, _ in got]


class TestExtremal:
    def test_empty_min_is_pos_inf(self, map_graph):
        # objective: extra dimension over time
        o2, prep = make_oracle(
            "LET One(x) := 1 IN SELECT NODES x, y, PATHS pi "
            "SUCH THAT x -[pi]-> y : E HAVING One[pi] <= -1",
            map_graph, env={"x": "S", "y": "P"}, objective=("time", "pi"))
        assert extremal(o2, len(prep.bounds), tuple(prep.bounds) + (POS_INF,),
                        "min") is POS_INF

    def test_pumpable_self_loop(self):
        g = Graph(["a"], [Labelling("E", 2, {("a", "a"): 1}, 0),
                          Labelling("w", 1, {("a",): -1}, 0)])
        o2, prep = make_oracle(
            "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E",
            g, env={"x": "a", "y": "a"}, objective=("w", "p"))
        assert extremal(o2, 0, (POS_INF,), "min") is NEG_INF

    def test_min_time_route(self, map_graph):
        o2, prep = make_oracle(
            "SELECT NODES x, y, PATHS rho SUCH THAT x -[rho]-> y : E",
            map_graph, env={"x": "S", "y": "P"}, objective=("time", "rho"))
        assert extremal(o2, 0, (POS_INF,), "min") == 80

    def test_max_attr_unbounded(self, map_graph):
        o2, prep = make_oracle(
            "SELECT NODES x, y, PATHS rho SUCH THAT x -[rho]-> y : E",
            map_graph, env={"x": "S", "y": "P"}, objective=("attr", "rho"))
        assert extremal(o2, 0, (POS_INF,), "max") is POS_INF

    def test_finite_min_consistency(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(20):
            g = random_graph(rng, max_nodes=4, value_range=(0, 3))
            x = rng.choice(g.real_nodes)
            y = rng.choice(g.real_nodes)
            o2, prep = make_oracle(
                "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E",
                g, env={"x": x, "y": y}, objective=("val", "p"))
            value = extremal(o2, 0, (POS_INF,), "min")  # never inconclusive
            if value is POS_INF or value is NEG_INF:
                continue
            attained = [vec[0] for _, vec in
                        brute_force(o2, (value,), 2 * len(g.real_nodes))]
            assert value in attained
            assert not list(brute_force(o2, (value - 1,),
                                        2 * len(g.real_nodes)))
            checked += 1
        assert checked >= 5

    def test_improving_cycle_family(self):
        """Constructed instances: a feasible route through a strictly
        improving cycle must be detected as unbounded."""
        rng = random.Random(77)
        for i in range(50):
            n = rng.randint(2, 4)
            nodes = [f"n{j}" for j in range(n)]
            edges = {}
            # a guaranteed chain n0 -> ... -> n_{n-1}
            for j in range(n - 1):
                edges[(nodes[j], nodes[j + 1])] = 1
            # extra random edges
            for _ in range(rng.randint(0, 4)):
                edges[(rng.choice(nodes), rng.choice(nodes))] = 1
            # a strictly improving cycle at a random chain node
            c = rng.choice(nodes)
            edges[(c, c)] = 1
            values = {(v,): rng.randint(0, 2) for v in nodes}
            values[(c,)] = -rng.randint(1, 3)
            g = Graph(nodes, [Labelling("E", 2, edges, 0),
                              Labelling("val", 1, values, 0)])
            o2, prep = make_oracle(
                "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E",
                g, env={"x": nodes[0], "y": nodes[-1]},
                objective=("val", "p"))
            assert extremal(o2, 0, (POS_INF,), "min") is NEG_INF, i

    def test_improving_cycle_family_under_bound(self):
        """The family above with a second labelling `w` and `w[p] <= 3`:
        where the cycle node has `w` 0 the chain through it is feasible and
        pumping keeps the bound (-inf).  Elsewhere the optimum loops at the
        cycle node at most three times and visits no other node twice, so
        the brute force over six nodes has its value."""
        rng = random.Random(77)
        q = parse("SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
                  "HAVING w[p] <= 3")
        kinds = set()
        for i in range(40):
            n = rng.randint(2, 4)
            nodes = [f"n{j}" for j in range(n)]
            edges = {(nodes[j], nodes[j + 1]): 1 for j in range(n - 1)}
            for _ in range(rng.randint(0, 4)):
                edges[(rng.choice(nodes), rng.choice(nodes))] = 1
            c = rng.choice(nodes)
            edges[(c, c)] = 1
            values = {(v,): rng.randint(0, 2) for v in nodes}
            values[(c,)] = -rng.randint(1, 3)
            w = {(v,): rng.randint(0, 1) for v in nodes}
            if i % 2 == 0:
                w[(c,)] = 0
            g = Graph(nodes, [Labelling("E", 2, edges, 0),
                              Labelling("val", 1, values, 0),
                              Labelling("w", 1, w, 0)])
            env = {"x": nodes[0], "y": nodes[-1]}
            got = Engine().extremal("val", q, g, env, "min")
            if w[(c,)] == 0:
                assert got is NEG_INF, i
            else:
                assert got == extremal_brute("val", q, g, env, "min",
                                             max_len=6), i
            kinds.add("-inf" if got is NEG_INF else "finite")
        assert kinds == {"-inf", "finite"}
