"""Data model: extended integers, paths, the synchronization word,
embeddings and graph files."""

import pytest
from hypothesis import given, strategies as st

from opra.errors import (
    ArityMismatch,
    EmptyPathList,
    GraphFormatError,
    MagnitudeCapExceeded,
    UndefinedInfinitySum,
    UnknownLabelling,
    UnknownNode,
)
from opra.graph import (
    NEG_INF,
    POS_INF,
    SINK,
    Graph,
    Labelling,
    comb,
    embed_data_graph,
    embed_ecrpq,
    ext_add,
    ext_cmp,
    ext_mul,
    graph_from_dict,
    graph_to_dict,
    path_at,
)

ext_values = st.one_of(st.integers(-50, 50), st.just(POS_INF), st.just(NEG_INF))


class TestExtInt:
    def test_saturation(self):
        assert ext_add(POS_INF, 5) is POS_INF
        assert ext_add(5, NEG_INF) is NEG_INF

    def test_zero_times_infinity(self):
        assert ext_mul(0, NEG_INF) == 0
        assert ext_mul(POS_INF, 0) == 0

    def test_sign_rule(self):
        assert ext_mul(-1, POS_INF) is NEG_INF
        assert ext_mul(-2, NEG_INF) is POS_INF

    def test_undefined_sum(self):
        with pytest.raises(UndefinedInfinitySum):
            ext_add(POS_INF, NEG_INF)

    def test_total_order(self):
        assert ext_cmp(NEG_INF, -10 ** 9) < 0
        assert ext_cmp(10 ** 9, POS_INF) < 0
        assert ext_cmp(NEG_INF, POS_INF) < 0
        assert ext_cmp(POS_INF, POS_INF) == 0

    @given(ext_values, ext_values)
    def test_add_commutative(self, a, b):
        try:
            left = ext_add(a, b)
        except UndefinedInfinitySum:
            with pytest.raises(UndefinedInfinitySum):
                ext_add(b, a)
            return
        assert ext_cmp(left, ext_add(b, a)) == 0

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_add_associative_finite(self, xs):
        a, b, c = xs
        assert ext_add(ext_add(a, b), c) == ext_add(a, ext_add(b, c))


class TestPaths:
    def test_path_at(self):
        p = ("S", "T", "P")
        assert path_at(p, 2) == "T"
        assert path_at(p, 5) is SINK
        assert path_at((), 1) is SINK
        assert path_at(p, 0) is SINK

    def test_comb_paper_example(self):
        got = comb([("v1", "v2", "v3"), ("v4", "v5")])
        assert got == (
            (SINK, "v1", "v2", SINK, "v4", "v5"),
            ("v1", "v2", "v3", "v4", "v5", SINK),
            ("v2", "v3", SINK, "v5", SINK, SINK),
        )

    def test_comb_single(self):
        assert comb([("v",)]) == ((SINK, "v", SINK),)

    def test_comb_symmetry(self):
        got = comb([("a", "b"), ("a", "b")])
        assert got == ((SINK, "a", "b", SINK, "a", "b"),
                       ("a", "b", SINK, "a", "b", SINK))

    def test_comb_empty_list(self):
        with pytest.raises(EmptyPathList):
            comb([])

    @given(st.lists(st.lists(st.sampled_from("abc"), max_size=5).map(tuple),
                    min_size=1, max_size=3))
    def test_comb_length_law(self, paths):
        word = comb(paths)
        assert len(word) == max(len(p) for p in paths)
        for j, window in enumerate(word, start=1):
            for i, p in enumerate(paths):
                assert window[3 * i + 1] == path_at(p, j)


class TestLookup:
    def test_map_values(self, map_graph):
        assert map_graph.lookup("attr", ("B",)) == -2
        assert map_graph.lookup("E", ("S", "T")) == 1
        assert map_graph.lookup("E", ("T", "S")) == 0

    def test_sink_reads_default(self, map_graph):
        assert map_graph.lookup("attr", (SINK,)) == 0

    def test_errors(self, map_graph):
        with pytest.raises(UnknownLabelling):
            map_graph.lookup("nope", ("S",))
        with pytest.raises(ArityMismatch):
            map_graph.lookup("attr", ("S", "T"))
        with pytest.raises(UnknownNode):
            map_graph.lookup("attr", ("Z",))


class TestOutNeighbours:
    def test_nonzero_entries_in_node_order(self):
        g = Graph(["c", "b", "a"], [Labelling("E", 2, {
            ("a", "c"): 1, ("a", "b"): NEG_INF, ("a", "a"): 0,
            ("b", "a"): POS_INF, ("b", SINK): 1}, 0)])
        assert g.out_neighbours("E", "a") == ("b", "c")
        assert g.out_neighbours("E", "b") == ("a",)  # sink target skipped
        assert g.out_neighbours("E", "c") == ()

    def test_unindexed_labellings(self):
        g = Graph(["a"], [Labelling("D", 2, {}, 1), Labelling("u", 1, {}, 0)])
        assert g.out_neighbours("D", "a") is None  # nonzero default
        assert g.out_neighbours("u", "a") is None
        assert g.out_neighbours("nope", "a") is None


class TestEmbedEcrpq:
    def test_self_loop(self):
        g = embed_ecrpq(["u"], [("u", "a", "u")], ["a"])
        assert len(g.real_nodes) == 2  # (u,a) and (u,end)
        assert g.lookup("E", ("u|a", "u|a")) == 1
        assert g.lookup("E", ("u|a", "u|_")) == 1
        assert g.lookup("same", ("u|a", "u|_")) == 1

    def test_empty_edges(self):
        g = embed_ecrpq(["u", "v"], [], ["a"])
        for x in g.real_nodes:
            for y in g.real_nodes:
                assert g.lookup("E", (x, y)) == 0
        assert g.lookup("lab_a", ("u|a",)) == 1
        assert g.lookup("lab_a", ("u|_",)) == 0

    def test_two_nodes(self):
        g = embed_ecrpq(["u", "v"], [("u", "a", "v")], ["a", "b"])
        assert g.lookup("E", ("u|a", "v|_")) == 1
        assert g.lookup("E", ("u|a", "v|b")) == 1  # tag unconstrained by E
        assert g.lookup("E", ("u|b", "v|_")) == 0

    def test_node_count_law(self):
        g = embed_ecrpq(["u", "v", "w"], [], ["a", "b"])
        assert len(g.real_nodes) == 3 * (2 + 1)

    def test_same_is_equivalence(self):
        g = embed_ecrpq(["u", "v"], [("u", "a", "v")], ["a"])
        nodes = g.real_nodes
        for x in nodes:
            assert g.lookup("same", (x, x)) == 1
            for y in nodes:
                assert g.lookup("same", (x, y)) == g.lookup("same", (y, x))
                for z in nodes:
                    if g.lookup("same", (x, y)) and g.lookup("same", (y, z)):
                        assert g.lookup("same", (x, z)) == 1


class TestEmbedDataGraph:
    def test_single_node(self):
        g = embed_data_graph(["v"], [], {"v": 7})
        assert set(g.real_nodes) == {"v"}
        assert g.lookup("data", ("v",)) == 7

    def test_edge_node(self):
        g = embed_data_graph(["v", "w"], [("v", "a", "w")], {"v": 1, "w": 2})
        e = "v>a>w"
        assert g.lookup("E", ("v", e)) == 1
        assert g.lookup("E", (e, "w")) == 1
        assert g.lookup("data", (e,)) == 0
        assert g.lookup("lab_a", (e,)) == 1

    def test_self_loop(self):
        g = embed_data_graph(["v"], [("v", "a", "v")], {"v": 0})
        e = "v>a>v"
        assert g.lookup("E", ("v", e)) == 1
        assert g.lookup("E", (e, "v")) == 1


class TestFiles:
    def test_roundtrip(self, map_graph):
        doc = graph_to_dict(map_graph)
        g2 = graph_from_dict(doc)
        assert set(g2.real_nodes) == set(map_graph.real_nodes)
        for name, lab in map_graph.labellings.items():
            for key, value in lab.entries.items():
                assert g2.lookup(name, key) == value

    def test_sink_forbidden(self):
        with pytest.raises(GraphFormatError):
            graph_from_dict({"nodes": ["SINK"], "labellings": []})

    def test_magnitude_cap(self):
        doc = {"nodes": ["a"], "labellings": [
            {"name": "v", "arity": 1, "default": 0,
             "entries": [[["a"], 10 ** 7]]}]}
        with pytest.raises(MagnitudeCapExceeded):
            graph_from_dict(doc)
        graph_from_dict(doc, magnitude_cap=None)  # configurable off

    def test_bad_documents(self):
        with pytest.raises(GraphFormatError):
            graph_from_dict({"labellings": []})
        with pytest.raises(GraphFormatError):
            graph_from_dict({"nodes": ["a", "a"]})
        with pytest.raises(GraphFormatError):
            graph_from_dict({"nodes": ["a"], "labellings": [
                {"name": "v", "arity": 1, "entries": [[["b"], 1]]}]})
