"""Shared test machinery: random graphs, the query pool, and independent
oracles (permutation/cycle checks, configuration enumeration)."""

from __future__ import annotations

import random
from itertools import permutations, product as iproduct

from opra.graph import Graph, Labelling
from opra.parser import parse

# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, max_nodes: int = 5, value_range=(-3, 3),
                 edge_density: float = 0.4, min_nodes: int = 1) -> Graph:
    n = rng.randint(min_nodes, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    edges = {}
    for u in nodes:
        for v in nodes:
            if rng.random() < edge_density:
                edges[(u, v)] = 1
    values = {(v,): rng.randint(*value_range) for v in nodes}
    return Graph(nodes, [
        Labelling("E", 2, edges, 0),
        Labelling("val", 1, values, 0),
    ])


def random_route_graph(rng: random.Random, n: int = 16, out_degree: int = 3,
                       labels=(("time", 1, 60), ("attr", -5, 40))) -> Graph:
    """`n` nodes with `out_degree` random successors each (self-loops
    allowed) and one uniformly drawn unary labelling per (name, lo, hi)."""
    nodes = [f"v{i:03d}" for i in range(n)]
    edges = {(u, v): 1 for u in nodes for v in rng.sample(nodes, out_degree)}
    labellings = [Labelling("E", 2, edges, 0)]
    for name, lo, hi in labels:
        labellings.append(Labelling(
            name, 1, {(v,): rng.randint(lo, hi) for v in nodes}, 0))
    return Graph(nodes, labellings)


def graph_edges(g: Graph):
    lab = g.labellings["E"]
    return [k for k, v in lab.entries.items() if v != 0]


# ---------------------------------------------------------------------------
# The twelve-query pool (every constraint kind, every term variant)
# ---------------------------------------------------------------------------

# (name, text, oracle path-length bound)
QUERY_POOL = [
    ("reach",
     "SELECT NODES x, y SUCH THAT x -[p]-> y : E",
     4),
    ("positive-path",
     "SELECT NODES x, y SUCH THAT x -[p]-> y : E WHERE <val(p@0) > 0>*",
     4),
    ("bidirectional-bound-path",
     "SELECT NODES x, y, PATHS p SUCH THAT x -[p]-> y : E "
     "WHERE <E(p@+1, p@0)>* <TOP>",
     3),
    ("sum-bound",
     "SELECT NODES x, y SUCH THAT x -[p]-> y : E HAVING val[p] <= 2",
     4),
    ("avg-with-const-and-label-bound",
     "LET one(x) := 1, b0() := 2 IN SELECT NODES x, y "
     "SUCH THAT x -[p]-> y : E HAVING val[p] - 1*one[p] <= b0()",
     4),
    ("apply-walk-filter",
     "LET t2(x) := (val(x) = 1) * val(x) IN SELECT NODES x, y "
     "SUCH THAT x -[p]-> y : E HAVING t2[p] <= 1",
     4),
    ("subquery-crowded",
     "LET cr(x) := [SELECT NODES x SUCH THAT x -[q]-> y2 : E "
     "WHERE <TOP> <val(q@0) >= 2>] IN "
     "SELECT NODES x, y SUCH THAT x -[p]-> y : E WHERE <cr(p@0) = 0>*",
     4),
    ("aggregate-best-successor",
     "LET mas(x, y) := (Count({val(z) : AND(E(x, z) = 1, val(z) >= val(y))}) = 1) "
     "IN SELECT NODES x, y SUCH THAT x -[p]-> y : E "
     "WHERE <mas(p@0, p@+1) = 1>* <TOP>",
     3),
    ("minpath-shortest",
     "LET m(x, y) := minpath(val, r, [SELECT NODES x, y, PATHS r "
     "SUCH THAT x -[r]-> y : E]) IN SELECT NODES x, y "
     "SUCH THAT x -[p]-> y : E HAVING val[p] - m[x, y] <= 0",
     3),
    ("identity-two-paths",
     "LET df(a, b) := NOT(a = b) IN SELECT NODES x, y "
     "SUCH THAT x -[p]-> y : E AND x -[q]-> y : E HAVING df[p, q] >= 1",
     3),
    ("maxpath-clamped",
     "LET M(x, y) := maxpath(val, r, [SELECT NODES x, y, PATHS r "
     "SUCH THAT x -[r]-> y : E]), M2(x, y) := max(-5, min(5, M(x, y))) IN "
     "SELECT NODES x, y SUCH THAT x -[p]-> y : E "
     "HAVING val[p] - M2[x, x] <= 0",
     3),
    ("boolean-cycle",
     "SELECT () SUCH THAT x -[p]-> x : E WHERE <TOP> <TOP> <TOP>*",
     4),
]


def pool_queries():
    return [(name, parse(text), max_len) for name, text, max_len in QUERY_POOL]


# ---------------------------------------------------------------------------
# Certificate checking: validate an engine witness independently
# ---------------------------------------------------------------------------

def certify_holds(q, g, sel=(), bound_paths=()):
    """Find an engine witness and validate it with the direct constraint
    checker; True only when an independently verified witness exists."""
    from itertools import product as iproduct

    from opra.bruteforce import check_instantiation
    from opra.engine import Engine, _Prepared
    from opra.product import AnswerOracle
    from opra.terms import extend
    from opra.vass import find_witness

    eng = Engine()
    gx = extend(g, q.ontologies, engine=eng)
    prep = _Prepared(q, gx)
    base_env = dict(zip(q.select_nodes, sel))
    bound = dict(zip(q.select_paths, map(tuple, bound_paths)))
    free = list(q.quantified_paths()) + \
        [p for p in q.select_paths if p not in bound]
    quantified = sorted(q.node_vars() - set(base_env))
    for combo in iproduct(g.real_nodes, repeat=len(quantified)):
        env = dict(base_env)
        env.update(zip(quantified, combo))
        core = prep.core(env, bound, free)
        oracle = AnswerOracle(core, gx)
        decoded = find_witness(oracle, prep.bounds)
        if decoded is None:
            continue
        path_env = dict(bound)
        for slot, spec in enumerate(core.slots):
            if spec.var not in q.coerced_node_vars():
                path_env[spec.var] = decoded[slot]
        if check_instantiation(q, gx, env, path_env):
            return True
    return False


def prepare(text, g):
    """The query compiled once against `g`, for binding many paths: (query,
    extended graph, prepared query, a second extension of `g` for the
    direct matcher)."""
    from opra.engine import Engine, _Prepared
    from opra.terms import extend

    q = parse(text)
    gx = extend(g, q.ontologies, engine=Engine())
    return q, gx, _Prepared(q, gx), extend(g, q.ontologies)


def has_bound_run(gx, prep, env, bound_paths) -> bool:
    """Does the product have an S-to-T run with every path slot bound?"""
    from opra import vass
    from opra.product import AnswerOracle

    o = AnswerOracle(prep.core(env, bound_paths, []), gx)
    return vass.solve_core(o, prep.bounds).status == vass.FOUND


# ---------------------------------------------------------------------------
# Graph-algorithm oracles
# ---------------------------------------------------------------------------

def has_hamiltonian_cycle(g: Graph) -> bool:
    nodes = list(g.real_nodes)
    edges = set(graph_edges(g))
    if not nodes:
        return False
    if len(nodes) == 1:
        return (nodes[0], nodes[0]) in edges
    first = nodes[0]
    for perm in permutations(nodes[1:]):
        order = [first] + list(perm)
        if all((order[i], order[(i + 1) % len(order)]) in edges
               for i in range(len(order))):
            return True
    return False


def has_cycle(g: Graph) -> bool:
    adj = {}
    for (u, v) in graph_edges(g):
        adj.setdefault(u, []).append(v)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {v: WHITE for v in g.real_nodes}

    def dfs(u) -> bool:
        colour[u] = GREY
        for w in adj.get(u, ()):
            if colour[w] == GREY:
                return True
            if colour[w] == WHITE and dfs(w):
                return True
        colour[u] = BLACK
        return False

    return any(colour[v] == WHITE and dfs(v) for v in g.real_nodes)


def count_paths(g: Graph, src, dst, max_len: int) -> int:
    """Number of distinct node sequences joining src to dst, length-bounded.

    Counts walks of 1 to max(max_len, 1) nodes with a dynamic programme over
    (length, end node): `ways[v]` is the number of walks of the current
    length from src that end at v.
    """
    edges = set(graph_edges(g))
    succ: dict = {}
    ways = {src: 1}
    total = 0
    for _ in range(max(max_len, 1)):
        total += ways.get(dst, 0)
        nxt: dict = {}
        for u, n in ways.items():
            if u not in succ:
                succ[u] = [v for v in g.real_nodes if (u, v) in edges]
            for v in succ[u]:
                nxt[v] = nxt.get(v, 0) + n
        ways = nxt
    return total


def unique_path_oracle(g: Graph, src, dst, max_len: int = 8):
    """True / False / None (inconclusive: long paths could still exist)."""
    n = count_paths(g, src, dst, max_len)
    if n == 0:
        return False
    if n == 1:
        # a second path longer than the bound cannot be ruled out only if
        # the graph has a cycle on some src-dst route; keep it simple and
        # conservative for the generated sizes
        return True if max_len >= 2 * len(g.real_nodes) + 2 else None
    return False


# ---------------------------------------------------------------------------
# Walk extrema over node weights: `labelling` summed over every node of a
# walk of at least one node from src to dst (the route query's value)
# ---------------------------------------------------------------------------

def _node_weights(g: Graph, labelling: str):
    lab = g.labellings[labelling]
    return {v: lab.entries.get((v,), lab.default) for v in g.real_nodes}


def _successors(g: Graph):
    succ = {v: [] for v in g.real_nodes}
    for (u, v) in graph_edges(g):
        succ[u].append(v)
    return succ


def dijkstra_walk(g: Graph, labelling: str, src, dst):
    """Minimal walk value for non-negative weights; +inf without a walk."""
    import heapq
    from opra.graph import POS_INF

    weight = _node_weights(g, labelling)
    assert all(w >= 0 for w in weight.values())
    succ = _successors(g)
    dist = {src: weight[src]}
    heap = [(weight[src], src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in succ[u]:
            if v not in dist or d + weight[v] < dist[v]:
                dist[v] = d + weight[v]
                heapq.heappush(heap, (dist[v], v))
    return dist.get(dst, POS_INF)


def dijkstra_walk_above(g: Graph, labelling: str, resource: str, floor: int,
                        src, dst, horizon: int):
    """Minimal walk value among the walks whose `resource` total exceeds
    `floor`, for positive `labelling` weights: Dijkstra over (node,
    `resource` total), which stops past `horizon`.  +inf when no such walk
    is worth `horizon` or less."""
    import heapq
    from opra.graph import POS_INF

    weight = _node_weights(g, labelling)
    extra = _node_weights(g, resource)
    assert all(w > 0 for w in weight.values())
    succ = _successors(g)
    heap = [(weight[src], src, extra[src])]
    done = set()
    while heap:
        d, u, r = heapq.heappop(heap)
        if d > horizon:
            break
        if (u, r) in done:
            continue
        done.add((u, r))
        if u == dst and r > floor:
            return d
        for v in succ[u]:
            heapq.heappush(heap, (d + weight[v], v, r + extra[v]))
    return POS_INF


def bellman_ford_walk(g: Graph, labelling: str, src, dst, direction: str):
    """Minimal (maximal) walk value for any weights: |V| - 1 rounds over
    the nodes on some src-dst walk, then one more round that finds an
    improving (negative for min, positive for max) cycle there: -inf
    (+inf).  Without a walk +inf (-inf)."""
    from opra.graph import NEG_INF, POS_INF

    sign = 1 if direction == "min" else -1
    weight = {v: sign * w for v, w in _node_weights(g, labelling).items()}
    succ = _successors(g)
    pred = {v: [] for v in g.real_nodes}
    for u, vs in succ.items():
        for v in vs:
            pred[v].append(u)

    def closure(start, step):
        seen, stack = {start}, [start]
        while stack:
            for v in step[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    on_walk = closure(src, succ) & closure(dst, pred)
    if dst not in on_walk:
        return POS_INF if sign > 0 else NEG_INF
    edges = [(u, v) for u in on_walk for v in succ[u] if v in on_walk]
    dist = {src: weight[src]}

    def relax_round() -> bool:
        changed = False
        for u, v in edges:
            if u in dist and (v not in dist or dist[u] + weight[v] < dist[v]):
                dist[v] = dist[u] + weight[v]
                changed = True
        return changed

    for _ in range(len(on_walk) - 1):
        if not relax_round():
            break
    if relax_round():
        return NEG_INF if sign > 0 else POS_INF
    return sign * dist[dst]


def shortest_walk_within(g: Graph, labelling: str, bound: int, src, dst,
                         max_nodes: int):
    """Fewest nodes of a src-dst walk whose `labelling` total is at most
    `bound`: breadth-first over walk lengths, keeping per node the least
    total of the walks of that many nodes.  None past `max_nodes`."""
    weight = _node_weights(g, labelling)
    succ = _successors(g)
    layer = {src: weight[src]}
    for n in range(1, max_nodes + 1):
        if dst in layer and layer[dst] <= bound:
            return n
        nxt = {}
        for u, total in layer.items():
            for v in succ[u]:
                if v not in nxt or total + weight[v] < nxt[v]:
                    nxt[v] = total + weight[v]
        layer = nxt
    return None


def pairs_within_budget(g: Graph, cost: str, budget: int, gain: str,
                        floor: int):
    """The (src, dst) pairs joined by a walk whose `cost` total is at most
    `budget` and whose `gain` total exceeds `floor`, for positive `cost`
    weights: a dynamic programme over (node, cost used) that keeps the
    largest `gain` total."""
    weight = _node_weights(g, cost)
    extra = _node_weights(g, gain)
    assert all(w > 0 for w in weight.values())
    succ = _successors(g)
    out = set()
    for src in g.real_nodes:
        best = [dict() for _ in range(budget + 1)]  # cost used -> node -> gain
        if weight[src] <= budget:
            best[weight[src]][src] = extra[src]
        for used, layer in enumerate(best):
            for u, total in layer.items():
                if total > floor:
                    out.add((src, u))
                for v in succ[u]:
                    c, t = used + weight[v], total + extra[v]
                    if c <= budget and (v not in best[c] or best[c][v] < t):
                        best[c][v] = t
    return out


# ---------------------------------------------------------------------------
# Configuration-enumeration oracle for explicit VASS reachability
# ---------------------------------------------------------------------------

def vass_reach_oracle(vass, from_cfg, to_cfg, box: int, max_steps: int = 40_000):
    """Plain BFS over configurations clamped to |component| <= box.

    Returns True / False / None where None means the box clipped something.
    """
    from collections import deque
    start = (from_cfg.node, tuple(from_cfg.vector))
    target = (to_cfg.node, tuple(to_cfg.vector))
    if start == target:
        return True
    seen = {start}
    queue = deque([start])
    clipped = False
    while queue:
        if len(seen) > max_steps:
            return None
        node, vec = queue.popleft()
        for (delta, succ) in vass.successors(node):
            nvec = tuple(x + d for x, d in zip(vec, delta))
            if any(abs(x) > box for x in nvec):
                clipped = True
                continue
            key = (succ, nvec)
            if key in seen:
                continue
            if key == target:
                return True
            seen.add(key)
            queue.append(key)
    return None if clipped else False
