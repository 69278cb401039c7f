"""Term evaluation, aggregates and graph extension."""

import random
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

from helpers import random_graph

import opra
from opra.errors import UndefinedInfinitySum, UnknownLabelling
from opra.graph import NEG_INF, POS_INF, SINK, ext_cmp
from opra.model import (
    OntologyDef,
    TAggregate,
    TApply,
    TConst,
    TIdent,
    TLabel,
    TPathExtremum,
    TSubquery,
)
from opra.parser import parse
from opra.terms import eval_aggregate, eval_term, extend

ext_values = st.one_of(st.integers(-20, 20), st.just(POS_INF), st.just(NEG_INF))


class TestAggregates:
    def test_empty_conventions(self):
        assert eval_aggregate("Sum", []) == 0
        assert eval_aggregate("Count", []) == 0
        assert eval_aggregate("Min", []) is POS_INF
        assert eval_aggregate("Max", []) is NEG_INF

    def test_count(self):
        assert eval_aggregate("Count", [5, 7]) == 2

    def test_mixed_infinity_sum(self):
        with pytest.raises(UndefinedInfinitySum):
            eval_aggregate("Sum", [POS_INF, NEG_INF])

    @given(st.lists(ext_values, max_size=6), st.randoms())
    def test_permutation_invariance(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        for fn in ("Count", "Min", "Max"):
            assert ext_cmp(eval_aggregate(fn, values),
                           eval_aggregate(fn, shuffled)) == 0
        try:
            a = eval_aggregate("Sum", values)
        except UndefinedInfinitySum:
            return
        assert ext_cmp(a, eval_aggregate("Sum", shuffled)) == 0


class TestEvalTerm:
    def test_const(self, map_graph):
        gx = extend(map_graph, [])
        assert eval_term(TConst(7), gx, {}) == 7

    def test_identity(self, map_graph):
        gx = extend(map_graph, [])
        assert eval_term(TIdent("a", "b"), gx, {"a": "S", "b": "S"}) == 1
        assert eval_term(TIdent("a", "b"), gx, {"a": "S", "b": "T"}) == 0
        assert eval_term(TIdent("a", SINK), gx, {"a": "S"}) == 0

    def test_min_path_unsatisfiable(self, map_graph):
        q = parse("SELECT NODES x, y, PATHS r SUCH THAT x -[r]-> y : E "
                  "HAVING time[r] <= -1")
        t = TPathExtremum("min", "time", "r", q)
        gx = extend(map_graph, [])
        assert eval_term(t, gx, {"x": "S", "y": "P"}) is POS_INF

    def test_mas_example(self, map_graph):
        q6 = parse(
            "LET MAS(x, y) := (Count({attr(z) : AND(E(x, z) = 1, "
            "attr(z) >= attr(y))}) = 1) IN SELECT NODES x, y "
            "SUCH THAT x -[pi]-> y : E")
        gx = extend(map_graph, q6.ontologies)
        assert gx.lookup("MAS", ("S", "T")) == 1
        assert gx.lookup("MAS", ("S", "W")) == 0

    def test_subquery_boolean(self, map_graph):
        inner = parse("SELECT NODES a SUCH THAT a -[p]-> b : E")
        gx = extend(map_graph, [])
        value = eval_term(TSubquery(inner), gx, {"a": "S"})
        assert value in (0, 1)
        assert value == 1

    def test_totality(self, map_graph):
        gx = extend(map_graph, [])
        terms = [
            TConst(3),
            TLabel("attr", ("a",)),
            TIdent("a", "a"),
            TApply("add", (TConst(1), TConst(2))),
            TAggregate("Sum", "z", TConst(1), TConst(1)),
            TSubquery(parse("SELECT NODES a SUCH THAT a -[p]-> b : E")),
            TPathExtremum("max", "attr", "r", parse(
                "SELECT NODES a, PATHS r SUCH THAT a -[r]-> a : E "
                "HAVING time[r] <= 0")),
        ]
        for t in terms:
            eval_term(t, gx, {"a": "S"})


class TestExtend:
    def test_one(self, map_graph):
        gx = extend(map_graph, parse(
            "LET One(x) := 1 IN SELECT NODES x").ontologies)
        for v in map_graph.real_nodes:
            assert gx.lookup("One", (v,)) == 1
        assert gx.lookup("One", (SINK,)) == 1

    def test_inverse_edge(self, map_graph):
        gx = extend(map_graph, parse(
            "LET Einv(x, y) := E(y, x) IN SELECT NODES x").ontologies)
        assert gx.lookup("Einv", ("T", "S")) == map_graph.lookup("E", ("S", "T"))
        assert gx.lookup("Einv", ("S", "T")) == 0

    def test_chained_definitions(self, map_graph):
        defs = parse("LET a(x) := attr(x), b(x) := a(x) + 1 IN "
                     "SELECT NODES x").ontologies
        gx = extend(map_graph, defs)
        assert gx.lookup("b", ("T",)) == 41

    @staticmethod
    def _lookups_agree(g, defs):
        """Lookups on two extensions, made in opposite orders, agree and
        equal the definition body evaluated directly."""
        nodes = sorted(g.nodes, key=str)
        keys = [(d, args) for d in defs
                for args in iproduct(nodes, repeat=len(d.params))]
        first, second, fresh = (extend(g, defs) for _ in range(3))
        forward = {(d.name, args): first.lookup(d.name, args)
                   for d, args in keys}
        backward = {(d.name, args): second.lookup(d.name, args)
                    for d, args in reversed(keys)}
        assert forward == backward
        for d, args in keys:
            direct = eval_term(d.body, fresh, dict(zip(d.params, args)))
            assert forward[d.name, args] == direct

    def test_lookup_order_agrees(self, map_graph):
        defs = parse(
            "LET crowded(x) := [SELECT NODES x SUCH THAT x -[pi]-> y : E "
            "WHERE <TOP>* <attr(pi@0) > 100> HAVING time[pi] <= 10], "
            "sq(x) := attr(x) * attr(x) IN SELECT NODES x").ontologies
        self._lookups_agree(map_graph, defs)

    def test_lookup_order_agrees_random(self):
        rng = random.Random(5)
        defs = parse("LET a(x) := val(x) + 1, b(x, y) := a(x) * a(y) IN "
                     "SELECT NODES x").ontologies
        for _ in range(10):
            g = random_graph(rng, max_nodes=6)
            self._lookups_agree(g, defs)

    @pytest.mark.parametrize("text", [
        "LET a(x) := b(x), b(x) := 1 IN SELECT NODES x",
        "LET a(x) := a(x) IN SELECT NODES x",
    ])
    def test_forward_and_self_references_rejected(self, map_graph, text):
        with pytest.raises(UnknownLabelling, match="defined later"):
            opra.extend(map_graph, parse(text).ontologies)

    def test_aggregate_counts_sink(self, map_graph):
        # the node pool of an aggregate is the full node set, sink included
        gx = extend(map_graph, parse(
            "LET One(x) := 1, Nodes(x) := Sum({One(y) : 1}) IN "
            "SELECT NODES x").ontologies)
        assert gx.lookup("Nodes", ("S",)) == len(map_graph.real_nodes) + 1
