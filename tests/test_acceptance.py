"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with the coverage actually exercised; run with
`pytest tests/test_acceptance.py -s` to see them.  Expected values are
recomputed by independent oracles (bounded enumeration, permutation checks,
configuration enumeration) before being compared with the engine.
"""

import random
import time
from itertools import product as iproduct

import pytest
from conftest import corpus_texts

from helpers import (
    certify_holds,
    has_bound_run,
    has_cycle,
    has_hamiltonian_cycle,
    pool_queries,
    prepare,
    random_graph,
    unique_path_oracle,
    vass_reach_oracle,
)

from opra import vass
from opra.algebra import (
    cartesian,
    complement,
    dag_query,
    hamiltonian_query,
    intersect,
    union,
    unique_path_query,
)
from opra.bruteforce import answers_brute, check_instantiation, holds_brute
from opra.engine import Engine, _Prepared, answers, extremal, holds
from opra.errors import QuerySyntaxError, MacroError
from opra.graph import (
    POS_INF,
    Graph,
    Labelling,
    comb,
    embed_data_graph,
    embed_ecrpq,
    embedded_node,
)
from opra.nfa import match_direct
from opra.parser import parse
from opra.product import AnswerOracle
from opra.render import render
from opra.terms import extend


def report(line: str):
    print(f"\nPASS: {line}")


def make_oracle(text, g, env=None, bound_paths=None, free=None,
                objective=None):
    q = parse(text)
    eng = Engine()
    gx = extend(g, q.ontologies, engine=eng)
    prep = _Prepared(q, gx)
    if free is None:
        free = list(q.quantified_paths())
        free += [p for p in q.select_paths if p not in (bound_paths or {})]
    core = prep.core(dict(env or {}), dict(bound_paths or {}), free, objective)
    return AnswerOracle(core, gx), prep, q


def answer_nodes(q, g):
    result, complete = answers(q, g)
    assert complete
    return {t for t, _ in result}


class TestA1CorpusGoldens:
    """Map-graph golden results, each recomputed by the brute-force oracle
    with paths up to length 12 before comparison."""

    def test_corpus_goldens(self, map_graph):
        t0 = time.time()
        texts = corpus_texts()
        q1 = parse(texts["q1"])
        assert holds_brute(q1, map_graph, ("S", "P"), max_len=12)
        assert holds(q1, map_graph, ("S", "P")) is True

        q1_50 = parse("SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
                      "HAVING time[pi] <= 50 AND attr[pi] > 100")
        assert not holds_brute(q1_50, map_graph, ("S", "P"), max_len=12)
        assert holds(q1_50, map_graph, ("S", "P")) is False

        q3 = parse(texts["q3"])
        assert holds_brute(q3, map_graph, ("S", "P"), max_len=12)
        assert holds(q3, map_graph, ("S", "P")) is True

        q6 = parse(texts["q6"])
        assert holds_brute(q6, map_graph, ("S", "P"), max_len=12)
        assert holds(q6, map_graph, ("S", "P")) is True

        qroute = parse(texts["q_route"])
        from opra.bruteforce import atom_value, constrained_walks
        gx = extend(map_graph, ())
        walks12 = constrained_walks(gx, map_graph, "S", "P", "E", 12)
        brute_min_time = min(atom_value(gx, "time", [p]) for p in walks12)
        assert brute_min_time == 80
        assert extremal("time", qroute, map_graph,
                        {"x": "S", "y": "P"}, "min") == 80

        attr12 = max(atom_value(gx, "attr", [p]) for p in walks12)
        walks6 = constrained_walks(gx, map_graph, "S", "P", "E", 6)
        attr6 = max(atom_value(gx, "attr", [p]) for p in walks6)
        assert attr12 > attr6  # strictly pumpable attractiveness
        assert extremal("attr", qroute, map_graph,
                        {"x": "S", "y": "P"}, "max") is POS_INF
        dt = time.time() - t0
        assert dt < 5.0
        report(f"corpus goldens: Q1 true, Q1@50 false, Q3 true, Q6 true, "
               f"min time 80, max attr +inf, all oracle-recomputed "
               f"(paths <= 12) in {dt:.1f}s")


class TestA2OracleEquivalence:
    """500 random graphs (<= 5 nodes, labels in [-3,3]) x the 12-query pool:
    engine answers equal the brute-force evaluator's; engine-only answers
    carry independently validated witnesses."""

    GRAPHS = 500

    def test_oracle_equivalence(self):
        t0 = time.time()
        rng = random.Random(20260811)
        queries = pool_queries()
        checked = 0
        certified = 0
        for g_idx in range(self.GRAPHS):
            g = random_graph(rng, max_nodes=5)
            for name, q, max_len in queries:
                if q.select_paths:
                    # bound selected paths explicitly on a small sample
                    from opra.bruteforce import all_paths
                    for p in all_paths(g.real_nodes, 2):
                        for sel in iproduct(g.real_nodes,
                                            repeat=len(q.select_nodes)):
                            got = holds(q, g, sel, (p,))
                            want = holds_brute(q, g, sel, (p,),
                                               max_len=max_len)
                            assert got == want, (name, g_idx, sel, p)
                            checked += 1
                    continue
                engine_set = answer_nodes(q, g)
                brute_set = answers_brute(q, g, max_len=max_len)
                assert brute_set <= engine_set, \
                    (name, g_idx, brute_set - engine_set)
                for extra in engine_set - brute_set:
                    assert certify_holds(q, g, extra), (name, g_idx, extra)
                    certified += 1
                checked += 1
        dt = time.time() - t0
        assert dt < 600
        report(f"oracle equivalence: {self.GRAPHS} graphs x 12 queries, "
               f"{checked} comparisons, {certified} long-witness "
               f"certificates, exact, {dt:.0f}s")


class TestA3AnswerGraph:
    """Exhaustive product-vs-direct cross-check."""

    QUERIES_1 = [
        "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E",
        "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
        "WHERE <val(p@0) > 0>*",
        "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
        "WHERE <E(p@+1, p@0)>* <TOP>",
        "SELECT PATHS p WHERE <TOP> <TOP> <TOP>*",
    ]

    @staticmethod
    def _paths(nodes, max_len):
        out = [()]
        layer = [()]
        for _ in range(max_len):
            layer = [p + (v,) for p in layer for v in nodes]
            out.extend(layer)
        return out

    def test_soundness_completeness(self):
        t0 = time.time()
        rng = random.Random(7031)
        g4 = random_graph(rng, max_nodes=4, min_nodes=4)
        count = 0
        for text in self.QUERIES_1:
            q, gx, prep, gx_direct = prepare(text, g4)
            pvar = q.select_paths[0]
            envs = [{}]
            if q.select_nodes:
                envs = [{"x": x, "y": y}
                        for x in g4.real_nodes for y in g4.real_nodes]
            for env in envs:
                for p in self._paths(g4.real_nodes, 5):
                    product_sat = has_bound_run(gx, prep, env, {pvar: p})
                    direct = check_instantiation(q, gx_direct, env, {pvar: p})
                    assert product_sat == direct, (text, env, p)
                    count += 1
        g3 = random_graph(rng, max_nodes=3, min_nodes=3, edge_density=0.5)
        text2 = ("SELECT NODES x, y, PATHS p, q SUCH THAT x -[p]-> y : E "
                 "AND x -[q]-> y : E WHERE <p@0 = q@0 && p@0 != SINK> <TOP>*")
        q2, gx, prep, gx_direct = prepare(text2, g3)
        pool3 = self._paths(g3.real_nodes, 3)
        for x in g3.real_nodes:
            for y in g3.real_nodes:
                env = {"x": x, "y": y}
                for p1 in pool3:
                    for p2 in pool3:
                        bound = {"p": p1, "q": p2}
                        product_sat = has_bound_run(gx, prep, env, bound)
                        direct = check_instantiation(q2, gx_direct, env, bound)
                        assert product_sat == direct, (x, y, p1, p2)
                        count += 1
        report(f"answer graph vs direct matcher: {count} exhaustive tuples "
               f"(4-node graph, one path to length 5; 3-node graph, two "
               f"paths to length 3), exact, {time.time()-t0:.0f}s")


class TestA4VassSolver:
    def test_z_reachability_oracle(self):
        rng = random.Random(2024)
        conclusive = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            d = rng.randint(1, 3)
            nodes = tuple(f"q{i}" for i in range(n))
            edges = tuple((rng.choice(nodes),
                           tuple(rng.randint(-2, 2) for _ in range(d)),
                           rng.choice(nodes))
                          for _ in range(rng.randint(0, 6)))
            v = vass.Vass(nodes, edges, d)
            src = vass.Configuration(rng.choice(nodes),
                                     tuple(rng.randint(-1, 1)
                                           for _ in range(d)))
            dst = vass.Configuration(rng.choice(nodes),
                                     tuple(rng.randint(-2, 2)
                                           for _ in range(d)))
            res = vass.z_reachable(v, src, dst, box=50)
            want = vass_reach_oracle(v, src, dst, box=50)
            if want is True:
                assert res.status == vass.WITNESS
                assert vass.replay(res.witness, src) == dst
                conclusive += 1
            elif want is False:
                assert res.status == vass.UNREACHABLE
                conclusive += 1
        report(f"z-reachability vs configuration enumeration: 200 random "
               f"instances (<= 4 nodes, d <= 3, weights in [-2,2], box 50), "
               f"{conclusive} oracle-conclusive, exact")

    def test_improving_cycle_family(self):
        rng = random.Random(77)
        from opra.graph import NEG_INF
        for i in range(50):
            n = rng.randint(2, 4)
            nodes = [f"n{j}" for j in range(n)]
            edges = {}
            for j in range(n - 1):
                edges[(nodes[j], nodes[j + 1])] = 1
            for _ in range(rng.randint(0, 4)):
                edges[(rng.choice(nodes), rng.choice(nodes))] = 1
            c = rng.choice(nodes)
            edges[(c, c)] = 1
            values = {(v,): rng.randint(0, 2) for v in nodes}
            values[(c,)] = -rng.randint(1, 3)
            g = Graph(nodes, [Labelling("E", 2, edges, 0),
                              Labelling("val", 1, values, 0)])
            o2, prep, _ = make_oracle(
                "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E",
                g, env={"x": nodes[0], "y": nodes[-1]}, free=["p"],
                objective=("val", "p"))
            assert vass.extremal(o2, 0, (POS_INF,), "min") is NEG_INF, i
        report("extremal unboundedness: 50 constructed instances with a "
               "feasible strictly improving cycle, all detected as -inf")


class TestA5ClosureLaws:
    GRAPHS = 100

    def test_closure_laws(self):
        t0 = time.time()
        rng = random.Random(5050)
        q_pos = parse("SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                      "WHERE <val(p@0) > 0>*")
        q_sum = parse("SELECT NODES x, y SUCH THAT x -[p]-> y : E "
                      "HAVING val[p] <= 1")
        q_none = parse("LET One(x) := 1 IN SELECT NODES x, y "
                       "SUCH THAT x -[p]-> y : E HAVING One[p] <= -1")
        q_single = parse("SELECT NODES x SUCH THAT x -[p]-> x : E WHERE <TOP>")
        inter = intersect(q_pos, q_sum)
        uni = union(q_pos, q_sum)
        uni_empty = union(q_pos, q_none)
        cart = cartesian(q_single, q_single)
        comp2 = complement(complement(q_sum))
        for i in range(self.GRAPHS):
            g = random_graph(rng, max_nodes=5)
            a = answer_nodes(q_pos, g)
            b = answer_nodes(q_sum, g)
            assert answer_nodes(inter, g) == a & b, i
            assert answer_nodes(uni, g) == a | b, i
            assert answer_nodes(uni_empty, g) == a, i
            singles = answer_nodes(q_single, g)
            assert answer_nodes(cart, g) == \
                {(u, v) for (u,) in singles for (v,) in singles}, i
            assert answer_nodes(comp2, g) == b, i
        report(f"closure laws: {self.GRAPHS} random graphs <= 5 nodes, "
               f"intersection, union (incl. one empty operand), product, "
               f"double complement, exact, {time.time()-t0:.0f}s")


class TestA6GraphPropertyQueries:
    SAMPLES = 200

    def test_against_graph_oracles(self):
        t0 = time.time()
        rng = random.Random(6060)
        ham_checked = dag_checked = uniq_checked = 0
        for i in range(self.SAMPLES):
            n = rng.randint(1, 6)
            g = random_graph(rng, max_nodes=n, min_nodes=n,
                             edge_density=rng.uniform(0.1, 0.6))
            kind = i % 3
            if kind == 0:
                got = bool(answer_nodes(hamiltonian_query(len(g.real_nodes)),
                                        g))
                assert got == has_hamiltonian_cycle(g), i
                ham_checked += 1
            elif kind == 1:
                got = bool(answer_nodes(dag_query(), g))
                assert got == (not has_cycle(g)), i
                dag_checked += 1
            else:
                got = answer_nodes(unique_path_query(), g)
                for src in g.real_nodes:
                    for dst in g.real_nodes:
                        want = unique_path_oracle(
                            g, src, dst, max_len=2 * len(g.real_nodes) + 2)
                        if want is None:
                            continue
                        assert ((src, dst) in got) == want, (i, src, dst)
                uniq_checked += 1
        report(f"graph-property queries vs independent algorithms: "
               f"{ham_checked} hamiltonian, {dag_checked} dag, "
               f"{uniq_checked} unique-path samples (<= 6 nodes), exact, "
               f"{time.time()-t0:.0f}s")


class TestA7Translators:
    def test_ecrpq_differential(self):
        from test_translate import TestEcrpq
        TestEcrpq().test_differential_random()
        report("ECRPQ translation: random queries (<= 2 paths, |alphabet| 2) "
               "vs direct semantics on embeddings, exhaustive node pairs, "
               "exact")

    def test_rdpa_differential(self):
        import test_translate as tt
        m = tt.parse_rdpa(tt.EQUALITY_MACHINE)
        ipa = tt.rdpa_to_ipa(m)
        rng = random.Random(8181)
        nodes = ["u", "v", "w"]
        trials = 0
        while trials < 200:
            data = {v: rng.randint(0, 2) for v in nodes}
            edges = [(u, "a", w) for u in nodes for w in nodes
                     if rng.random() < 0.5]
            if not edges:
                continue
            g = embed_data_graph(nodes, edges, data, alphabet=("a",))
            path = [rng.choice(nodes)]
            for _ in range(rng.randint(0, 2)):
                outs = [e for e in edges if e[0] == path[-1]]
                if not outs:
                    break
                e = rng.choice(outs)
                path.extend([e[1], e[2]])
            data_path = [data[path[0]]]
            for i in range(1, len(path), 2):
                data_path.extend([path[i], data[path[i + 1]]])
            from opra.graph import embed_data_path
            want = tt.run_rdpa(m, data_path)
            got = tt.run_ipa(ipa, embed_data_path(path), g)
            assert got == want, (trials, path, data)
            trials += 1
        tt.TestRdpaPipeline().test_whole_graph_equality_machine()
        tt.TestRdpaPipeline().test_whole_graph_astar()
        report("register-automaton translation: 200 random data paths vs the "
               "reference simulator, plus whole-graph evaluation on graphs "
               "<= 3 nodes, exact")


class TestA8Laziness:
    def test_touch_fraction(self):
        nodes = [f"n{i}" for i in range(20)]
        g = Graph(nodes, [Labelling("E", 2, {}, 0)])
        text = ("SELECT () WHERE <TOP && p1@0 = p1@0>* AND "
                "<TOP && p2@0 = p2@0>* AND <TOP && p3@0 = p3@0>*")
        o, prep, _ = make_oracle(text, g)
        res = vass.solve_core(o, prep.bounds)
        assert res.status == vass.FOUND
        space = o.state_space_size()
        fraction = o.touch_count / space
        assert fraction < 0.01
        report(f"laziness: immediately satisfiable query on a 20-node graph "
               f"touched {o.touch_count} of {space} product nodes "
               f"({100 * fraction:.3f}% < 1%)")


class TestA9Parser:
    MUTATIONS = 300

    def test_roundtrip_and_fuzz(self):
        texts = corpus_texts()
        for name, text in texts.items():
            q = parse(text)
            assert parse(render(q)) == q, name
            assert render(parse(render(q))) == render(q), name
        rng = random.Random(909)
        alphabet = "<>()[]{}@*+-=!&|:,. abcdefABC0123456789_"
        crashes = 0
        for _ in range(self.MUTATIONS):
            base = rng.choice(list(texts.values()))
            chars = list(base)
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(max(1, len(chars)))
                if op == 0 and chars:
                    del chars[pos % len(chars)]
                elif op == 1:
                    chars.insert(pos, rng.choice(alphabet))
                elif chars:
                    chars[pos % len(chars)] = rng.choice(alphabet)
            mutated = "".join(chars)
            try:
                parse(mutated)
            except QuerySyntaxError as exc:
                lines = mutated.split("\n")
                assert 1 <= exc.line <= len(lines) + 1
                assert exc.column >= 1
            except MacroError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0
        report(f"parser: 100% round-trip over {len(texts)} corpus queries; "
               f"{self.MUTATIONS} fuzzed inputs, no crashes, positioned "
               f"diagnostics only")
