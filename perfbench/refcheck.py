"""Reference answers computed without the engine.

Every checker reads a graph document (the JSON form that `load_graph`
accepts, as a plain dict) and uses textbook graph algorithms only:

* `reach_from` / `reach_pairs`: BFS closure; a one-node path joins a node
  to itself;
* the same with `allowed`: the same BFS restricted to a node subset,
  which answers `<type(pi@0) != 6>*`;
* `best_attr` / `having_pairs`: exact DP over (node, accumulated `time`)
  keeping the best `attr`, finite because every `time` is at least 1;
* `min_sum`: Dijkstra for a non-negative node weight (min `time`);
* `max_sum`: positive-cycle test on the x->y walks, then Bellman-Ford;
* `min_walk_sum`: Bellman-Ford with negative-cycle detection;
* `walk_ok`: validates one witness walk.

Sums run over the nodes of a walk, both ends included, as the engine's
`label[pi]` atoms do.
"""

from __future__ import annotations

import heapq
from collections import deque

POS_INF = float("inf")
NEG_INF = float("-inf")


class GraphData:
    """Adjacency and unary labels of a graph document."""

    def __init__(self, doc: dict, edge: str = "E"):
        self.nodes = list(doc["nodes"])
        self.labels = {}
        self.succ = {v: [] for v in self.nodes}
        for lab in doc["labellings"]:
            if lab["arity"] == 1:
                values = {v: lab["default"] for v in self.nodes}
                for (v,), value in lab["entries"]:
                    values[v] = value
                self.labels[lab["name"]] = values
            elif lab["name"] == edge:
                if lab["default"] != 0:
                    raise ValueError("edge labelling must default to 0")
                for (u, v), value in lab["entries"]:
                    if value != 0:
                        self.succ[u].append(v)
        for v in self.nodes:
            self.succ[v].sort()

    def pred(self):
        out = {v: [] for v in self.nodes}
        for u in self.nodes:
            for v in self.succ[u]:
                out[v].append(u)
        return out


def _bfs(succ, start, allowed=None):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in seen and (allowed is None or v in allowed):
                seen.add(v)
                queue.append(v)
    return seen


def reach_from(g: GraphData, x, allowed=None) -> set:
    """Targets of walks from x whose nodes all lie in `allowed`."""
    if allowed is not None and x not in allowed:
        return set()
    return _bfs(g.succ, x, allowed)


def reach_pairs(g: GraphData, allowed=None) -> set:
    return {(x, y) for x in g.nodes for y in reach_from(g, x, allowed)}


def has_cycle(g: GraphData) -> bool:
    """Some node returns to itself in at least one step."""
    return any(x in _bfs(g.succ, v) for v in g.nodes for x in g.succ[v])


def best_attr(g: GraphData, x, time_max: int) -> dict:
    """Per target y, the greatest sum(attr) of an x->y walk with
    sum(time) <= time_max (targets without such a walk are left out)."""
    time, attr = g.labels["time"], g.labels["attr"]
    if any(time[v] < 1 for v in g.nodes):
        raise ValueError("the DP needs time >= 1 on every node")
    best = {}  # (node, accumulated time) -> best accumulated attr
    if time[x] <= time_max:
        best[(x, time[x])] = attr[x]
    for t in range(1, time_max + 1):
        for u in g.nodes:
            a = best.get((u, t))
            if a is None:
                continue
            for v in g.succ[u]:
                t2 = t + time[v]
                if t2 <= time_max and best.get((v, t2), NEG_INF) < a + attr[v]:
                    best[(v, t2)] = a + attr[v]
    out = {}
    for (v, _), a in best.items():
        out[v] = max(a, out.get(v, NEG_INF))
    return out


def having_from(g: GraphData, x, time_max: int, attr_min_excl: int) -> set:
    """Targets y of walks from x with sum(time) <= time_max and
    sum(attr) > attr_min_excl."""
    return {y for y, a in best_attr(g, x, time_max).items()
            if a > attr_min_excl}


def having_pairs(g: GraphData, time_max: int, attr_min_excl: int) -> set:
    return {(x, y) for x in g.nodes
            for y in having_from(g, x, time_max, attr_min_excl)}


def min_sum(g: GraphData, label: str, x) -> dict:
    """Dijkstra: least sum of a non-negative node label over x->y walks."""
    w = g.labels[label]
    if any(w[v] < 0 for v in g.nodes):
        raise ValueError("Dijkstra needs non-negative weights")
    dist = {x: w[x]}
    heap = [(w[x], x)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in g.succ[u]:
            nd = d + w[v]
            if nd < dist.get(v, POS_INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return {y: dist.get(y, POS_INF) for y in g.nodes}


def _live(g: GraphData, x, y, allowed=None) -> set:
    """Nodes on some x->y walk inside `allowed`."""
    if allowed is not None and (x not in allowed or y not in allowed):
        return set()
    fwd = _bfs(g.succ, x, allowed)
    if y not in fwd:
        return set()
    back = _bfs(g.pred(), y, allowed)
    return fwd & back


def min_walk_sum(g: GraphData, weight: dict, x, y, allowed=None):
    """Least sum of `weight` over x->y walks inside `allowed`: +inf when
    there is none, -inf when a negative cycle lies on one (Bellman-Ford)."""
    live = _live(g, x, y, allowed)
    if not live:
        return POS_INF
    dist = {x: weight[x]}
    for _ in range(len(live)):
        changed = False
        for u in live:
            if u not in dist:
                continue
            for v in g.succ[u]:
                if v in live and dist[u] + weight[v] < dist.get(v, POS_INF):
                    dist[v] = dist[u] + weight[v]
                    changed = True
        if not changed:
            return dist[y]
    return NEG_INF  # still improving after |live| rounds


def max_sum(g: GraphData, label: str, x, y):
    """Greatest sum of a node label over x->y walks (positive-cycle test,
    then Bellman-Ford on the negated weights)."""
    neg = {v: -a for v, a in g.labels[label].items()}
    return -min_walk_sum(g, neg, x, y)


def walk_ok(g: GraphData, walk, x, y, allowed=None) -> bool:
    """A non-empty node walk from x to y along edges, inside `allowed`."""
    if not walk or walk[0] != x or walk[-1] != y:
        return False
    if allowed is not None and any(v not in allowed for v in walk):
        return False
    return all(b in g.succ[a] for a, b in zip(walk, walk[1:]))


def walk_sum(g: GraphData, label: str, walk) -> int:
    return sum(g.labels[label][v] for v in walk)
