"""The benchmark's reference checkers agree with opra.bruteforce.

Small random graphs (self-loops, unreachable pairs and type-6 nodes
included) keep the brute-force oracle exhaustive at the length bounds
used: reachability, minima and cycle-free maxima are attained by simple
paths, and a walk with sum(time) <= T has at most T nodes when every time
is at least 1.
"""

from __future__ import annotations

import random
import sys
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
from opra import NEG_INF, POS_INF, graph_from_dict, parse  # noqa: E402
from opra.bruteforce import answers_brute, extremal_brute  # noqa: E402

GRAPHS = 12
TIME_MAX, ATTR_MIN = 5, 1


def small_doc(rng: random.Random):
    n = rng.randint(2, 4)
    nodes = [f"n{i}" for i in range(n)]
    edges = [[[u, v], 1] for u in nodes for v in nodes if rng.random() < 0.4]

    def unary(name, lo, hi):
        return {"name": name, "arity": 1, "default": 0,
                "entries": [[[v], rng.randint(lo, hi)] for v in nodes]}

    return {"nodes": nodes, "labellings": [
        {"name": "E", "arity": 2, "default": 0, "entries": edges},
        unary("type", 5, 6), unary("time", 1, 3), unary("attr", -3, 3)]}


def cases():
    rng = random.Random(20200211)
    for _ in range(GRAPHS):
        doc = small_doc(rng)
        yield refcheck.GraphData(doc), graph_from_dict(doc)


def brute_pairs(text, g, max_len):
    return answers_brute(parse(text), g, max_len=max_len)


def test_reach_pairs_match_bruteforce():
    for gd, g in cases():
        n = len(gd.nodes)
        assert refcheck.reach_pairs(gd) == brute_pairs(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E", g, n)


def test_regular_reach_matches_bruteforce():
    for gd, g in cases():
        allowed = {v for v in gd.nodes if gd.labels["type"][v] != 6}
        assert refcheck.reach_pairs(gd, allowed) == brute_pairs(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            "WHERE <type(pi@0) != 6>*", g, len(gd.nodes))


def test_having_dp_matches_bruteforce():
    for gd, g in cases():
        assert refcheck.having_pairs(gd, TIME_MAX, ATTR_MIN) == brute_pairs(
            "SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
            f"HAVING time[pi] <= {TIME_MAX} AND attr[pi] > {ATTR_MIN}",
            g, TIME_MAX)


def _route():
    return parse("SELECT NODES x, y, PATHS rho SUCH THAT x -[rho]-> y : E")


def as_float(value):
    """opra's infinities as floats, integers unchanged."""
    if value is POS_INF:
        return refcheck.POS_INF
    if value is NEG_INF:
        return refcheck.NEG_INF
    return value


def test_dijkstra_matches_bruteforce():
    q = _route()
    for gd, g in cases():
        for x in gd.nodes:
            least = refcheck.min_sum(gd, "time", x)
            for y in gd.nodes:
                assert least[y] == as_float(extremal_brute(
                    "time", q, g, {"x": x, "y": y}, "min",
                    max_len=len(gd.nodes)))


def _positive_cycle_on_walk(gd, x, y) -> bool:
    """Some simple cycle with positive attr sum lies on an x->y walk."""
    reach = {v: refcheck.reach_from(gd, v) for v in gd.nodes}
    if y not in reach[x]:
        return False
    for k in range(1, len(gd.nodes) + 1):
        for cyc in permutations(gd.nodes, k):
            closed = cyc + (cyc[0],)
            if all(b in gd.succ[a] for a, b in zip(closed, closed[1:])) \
                    and refcheck.walk_sum(gd, "attr", cyc) > 0 \
                    and cyc[0] in reach[x] and y in reach[cyc[0]]:
                return True
    return False


def test_max_attr_matches_bruteforce():
    q = _route()
    for gd, g in cases():
        for x in gd.nodes:
            for y in gd.nodes:
                most = refcheck.max_sum(gd, "attr", x, y)
                pumped = _positive_cycle_on_walk(gd, x, y)
                assert (most == refcheck.POS_INF) == pumped
                if not pumped:
                    assert most == as_float(extremal_brute(
                        "attr", q, g, {"x": x, "y": y}, "max",
                        max_len=len(gd.nodes)))


def test_walk_validator():
    gd = refcheck.GraphData({"nodes": ["a", "b", "c"], "labellings": [
        {"name": "E", "arity": 2, "default": 0,
         "entries": [[["a", "b"], 1], [["b", "c"], 1]]}]})
    assert refcheck.walk_ok(gd, ("a",), "a", "a")
    assert refcheck.walk_ok(gd, ("a", "b", "c"), "a", "c")
    assert not refcheck.walk_ok(gd, ("a", "c"), "a", "c")
    assert not refcheck.walk_ok(gd, ("a", "b"), "a", "c")
    assert not refcheck.walk_ok(gd, (), "a", "a")
    assert not refcheck.walk_ok(gd, ("a", "b", "c"), "a", "c", {"a", "c"})
