"""Z-reachability on integer-vector-labelled graphs and constrained search
over answer oracles.

The solver works at desk scale: configuration-space search over
(node, counter vector) clamped to a box, with an explicit inconclusive
status whenever the box or the exploration budget is exhausted, never a
wrong answer.  Dimensions whose per-step weights cannot go negative are
pruned as soon as they exceed their bound.

Infinite bounds and infinite atom values are handled semantically: a
dimension that reaches minus infinity is satisfied forever, one that
reaches plus infinity can never meet a finite bound again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BoundExhausted, DimensionMismatch
from .graph import NEG_INF, POS_INF, SINK, ext_add, ext_cmp, ext_mul, is_finite
from .product import COUNTER_INF, AnswerOracle, ProductNode

WITNESS = "witness"
UNREACHABLE = "unreachable"
BOUND_EXHAUSTED = "bound_exhausted"

FOUND = "found"
EMPTY = "empty"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Configuration:
    node: object
    vector: Tuple[int, ...]


@dataclass(frozen=True)
class Vass:
    """Explicit integer-vector-labelled graph."""
    nodes: Tuple[object, ...]
    edges: Tuple[Tuple[object, Tuple[int, ...], object], ...]
    dimension: int

    def __post_init__(self):
        for (_, vec, _) in self.edges:
            if len(vec) != self.dimension:
                raise DimensionMismatch(
                    f"edge vector {vec!r} has length {len(vec)}, "
                    f"dimension is {self.dimension}")

    def successors(self, node):
        return [(vec, w) for (u, vec, w) in self.edges if u == node]

    def edge_bounds(self):
        lo = [0] * self.dimension
        hi = [0] * self.dimension
        for (_, vec, _) in self.edges:
            for i, x in enumerate(vec):
                lo[i] = min(lo[i], x)
                hi[i] = max(hi[i], x)
        return lo, hi

    def default_box(self) -> int:
        maxw = max((max((abs(x) for x in vec), default=0)
                    for (_, vec, _) in self.edges), default=0)
        return max(16, maxw * len(self.nodes) ** 2 * (self.dimension + 1))


@dataclass
class ZResult:
    status: str
    witness: Optional[List[Tuple[object, Tuple[int, ...], object]]] = None


def z_reachable(v: Vass, from_cfg: Configuration, to_cfg: Configuration,
                length_bound: Optional[int] = None, box: Optional[int] = None,
                max_configs: int = 200_000) -> ZResult:
    """Does the vector sum along some path link the two configurations?

    Breadth-first over configurations; `unreachable` is only reported when
    the search space was exhausted without any clamping, otherwise the
    result is `bound_exhausted`.
    """
    if len(from_cfg.vector) != len(to_cfg.vector):
        raise DimensionMismatch("configuration dimensions differ")
    if box is None:
        box = v.default_box()
    lo_hint, hi_hint = v.edge_bounds()
    target = to_cfg

    def at_target(node, vec) -> bool:
        return node == target.node and vec == target.vector

    start = (from_cfg.node, tuple(from_cfg.vector))
    if at_target(*start):
        return ZResult(WITNESS, [])

    clipped = False
    parents: Dict = {start: None}
    queue = deque([(start, 0)])
    while queue:
        if len(parents) > max_configs:
            return ZResult(BOUND_EXHAUSTED)
        (node, vec), depth = queue.popleft()
        if length_bound is not None and depth >= length_bound:
            clipped = True
            continue
        for (delta, succ) in v.successors(node):
            nvec = tuple(x + d for x, d in zip(vec, delta))
            dead = escaped = False
            for i, x in enumerate(nvec):
                # a dimension that can only grow (shrink) is dead past the target
                if lo_hint[i] >= 0 and x > target.vector[i]:
                    dead = True
                    break
                if hi_hint[i] <= 0 and x < target.vector[i]:
                    dead = True
                    break
                if abs(x) > box:
                    escaped = True
                    break
            if dead:
                continue
            if escaped:
                clipped = True
                continue
            key = (succ, nvec)
            if key in parents:
                continue
            parents[key] = ((node, vec), delta)
            if at_target(succ, nvec):
                return ZResult(WITNESS, _rebuild(parents, key))
            queue.append((key, depth + 1))
    return ZResult(BOUND_EXHAUSTED if clipped else UNREACHABLE)


def _rebuild(parents, key):
    out = []
    while parents[key] is not None:
        (pnode, pvec), delta = parents[key]
        out.append((pnode, delta, key[0]))
        key = (pnode, pvec)
    out.reverse()
    return out


def replay(witness, from_cfg: Configuration) -> Configuration:
    """Apply a witness to a start configuration (for validity checks)."""
    node, vec = from_cfg.node, list(from_cfg.vector)
    for (u, delta, w) in witness:
        if u != node:
            raise DimensionMismatch("witness does not chain")
        vec = [x + d for x, d in zip(vec, delta)]
        node = w
    return Configuration(node, tuple(vec))


# ---------------------------------------------------------------------------
# Constrained search over oracles (extended-integer aware)
# ---------------------------------------------------------------------------

MAX_CONFIGS = 400_000  # default configuration budget of one search


@dataclass
class CoreResult:
    status: str
    witness: Optional[List[ProductNode]] = None
    clipped: bool = False
    values: Optional[set] = None  # collect mode: attainable objective values
    runs: Optional[Dict[object, List[ProductNode]]] = None  # per end node


def solve_core(oracle: AnswerOracle, bounds: Sequence,
               objective: Optional[Tuple[int, int, object]] = None,
               via: frozenset = frozenset(),
               collect: bool = False, *,
               max_configs: int = MAX_CONFIGS,
               box: Optional[int] = None) -> CoreResult:
    """Find an S-to-T run whose accumulated weights satisfy the bounds.

    `bounds` are extended integers per dimension (POS_INF drops a dimension
    from tracking).  `objective` is (dim, sign, probe): additionally require
    sign * value[dim] <= probe at the target.  `via` lists product nodes the
    run must visit.  Depth-first with a visited set over (node, tracked
    values); deterministic order.  More than `max_configs` visited
    configurations give up; `box` clamps counter magnitudes (None derives
    one from the weights and bounds).

    When the box clips the counter space, a weight-free reachability pass
    can still certify emptiness structurally.

    When the oracle leaves a target open, the search keeps the first run per
    end node in `runs` and goes on until every node has one or the space is
    exhausted.
    """
    dims = len(oracle.core.dims)
    if len(bounds) != dims:
        raise DimensionMismatch(f"{len(bounds)} bounds for {dims} dimensions")

    tracked = [i for i, b in enumerate(bounds) if b is not POS_INF]
    if objective is not None and objective[0] not in tracked:
        tracked.append(objective[0])
        tracked.sort()
    t_pos = {d: i for i, d in enumerate(tracked)}
    obj_dim, obj_sign, obj_probe = objective if objective else (None, 0, None)

    ranges = oracle.weight_ranges()
    if box is None:
        box = _derived_box(oracle, bounds, ranges)

    # per tracked dimension, the values past which a configuration is dead:
    # above `hi` (below `lo`) when the weights there can only grow (shrink)
    his, los = [], []
    for d in tracked:
        r, b = ranges[d], bounds[d]
        hi = lo = None
        if r is not None:
            if r[0] >= 0 and is_finite(b):
                hi = b
            if d == obj_dim and is_finite(obj_probe):
                if obj_sign > 0 and r[0] >= 0:
                    hi = obj_probe if hi is None else min(hi, obj_probe)
                if obj_sign < 0 and r[1] <= 0:
                    lo = -obj_probe
        his.append(hi)
        los.append(lo)
    weights = oracle.weights
    clipped = False

    def arrive(node: ProductNode, values: Tuple):
        """New tracked vector after accumulating this node's weights, or
        None when the configuration is certainly dead or leaves the box."""
        nonlocal clipped
        w = weights(node)
        out = []
        for i, d in enumerate(tracked):
            v, wd = values[i], w[d]
            if type(v) is int and type(wd) is int:
                nv = v + wd
            else:
                nv = ext_add(v, wd)
                if nv is POS_INF:
                    if bounds[d] is not POS_INF:
                        return None  # can never meet a finite or -inf bound
                    if d == obj_dim and obj_sign > 0:
                        return None  # minimization probe can never pass
            out.append(nv)
        for v, hi, lo in zip(out, his, los):
            if type(v) is not int:
                continue
            if hi is not None and v > hi or lo is not None and v < lo:
                return None
            if abs(v) > box:
                clipped = True
                return None
        return tuple(out)

    def check_final(values) -> bool:
        for i, d in enumerate(tracked):
            b = bounds[d]
            if b is POS_INF:
                continue
            if ext_cmp(values[i], b) > 0:
                return False
        if obj_dim is not None:
            v = values[t_pos[obj_dim]]
            if ext_cmp(ext_mul(obj_sign, v), obj_probe) > 0:
                return False
        return True

    visited = set()
    stack: List[Tuple[ProductNode, Tuple, frozenset, Tuple]] = []

    def push(node, values, missing, trail):
        key = (node, values, missing)
        if key not in visited:
            visited.add(key)
            stack.append((node, values, missing, trail))

    runs: Optional[Dict[object, List[ProductNode]]] = \
        None if oracle.open_slot is None else {}
    n_ends = len(oracle.graph.real_nodes)
    zero = tuple(0 for _ in tracked)
    init_iter = oracle.initials()
    pending = True
    collected: set = set()
    first: Optional[CoreResult] = None
    while True:
        if not stack:
            if not pending:
                break
            nxt = next(init_iter, None)
            if nxt is None:
                pending = False
                continue
            values = arrive(nxt, zero)
            if values is not None:
                push(nxt, values, via - {nxt}, (nxt, None))
            continue
        if len(visited) > max_configs:
            return CoreResult(EXHAUSTED, clipped=True, runs=runs)
        node, values, missing, trail = stack.pop()
        if not missing and oracle.is_final(node) and check_final(values):
            if runs is not None:
                # every run through a final node ends where it does
                if node.end not in runs:
                    runs[node.end] = _unwind(trail)
                    if len(runs) == n_ends:
                        break
                continue
            if not collect:
                return CoreResult(FOUND, _unwind(trail), clipped=clipped)
            if first is None:
                first = CoreResult(FOUND, _unwind(trail))
            if objective is not None:
                collected.add(values[t_pos[objective[0]]])
        for succ in oracle.successors(node):
            nvalues = arrive(succ, values)
            if nvalues is not None:
                push(succ, nvalues, missing - {succ}, (succ, trail))
    if runs:
        return CoreResult(FOUND, next(iter(runs.values())), clipped=clipped,
                          runs=runs)
    if collect and first is not None:
        first.clipped = clipped
        first.values = collected
        return first
    if clipped:
        if _certify_empty(oracle, bounds, objective, max_configs):
            return CoreResult(EMPTY)
        return CoreResult(EXHAUSTED, clipped=True)
    return CoreResult(EMPTY)


_EXPLORE_CAP = 20_000  # product nodes the emptiness certificate may explore
# pumpable-cycle search around an extremal witness
_EXPLORE_NODES = 4000
_MAX_CYCLE_LEN = 24
_MAX_CYCLES = 300


def _explore(o: AnswerOracle, seeds, limit: int):
    """Breadth-first adjacency of the product region reachable from the
    seeds; expansion stops once `limit` nodes have been seen.  Returns the
    adjacency of the expanded nodes and whether unexpanded nodes remain."""
    queue = deque(dict.fromkeys(seeds))
    seen = set(queue)
    adj: Dict[ProductNode, List[ProductNode]] = {}
    while queue and len(seen) < limit:
        u = queue.popleft()
        succs = list(o.successors(u))
        adj[u] = succs
        for w in succs:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return adj, bool(queue)


def _live_region(oracle: AnswerOracle, max_configs: int):
    """The product region that S-to-T runs can use.

    Returns (initials, adjacency, finals, live), where `live` holds the
    explored nodes that reach a final (every explored node is reachable
    from an initial), or None when more than the cap of nodes is reachable.
    """
    initials = list(dict.fromkeys(oracle.initials()))
    adj, cut = _explore(oracle, initials,
                        min(max_configs, _EXPLORE_CAP) + 1)
    if cut:
        return None
    finals = [u for u in adj if oracle.is_final(u)]
    rev: Dict[ProductNode, List[ProductNode]] = {}
    for u, succs in adj.items():
        for w in succs:
            rev.setdefault(w, []).append(u)
    live = set(finals)
    stack = list(finals)
    while stack:
        u = stack.pop()
        for p in rev.get(u, ()):
            if p not in live:
                live.add(p)
                stack.append(p)
    return initials, adj, finals, live


def _certify_empty(oracle: AnswerOracle, bounds, objective,
                   max_configs: int) -> bool:
    """Emptiness certificates that survive counter clipping.

    Either no final node is structurally reachable, or along every run some
    dimension's best possible total already violates its requirement (the
    shortest run per dimension over the live region, abandoned for
    dimensions fed by an improving cycle or an infinite weight).
    """
    region = _live_region(oracle, max_configs)
    if region is None:
        return False  # more than the cap of nodes is reachable
    finals = region[2]
    if not finals:
        return True

    requirements = [(i, 1, b) for i, b in enumerate(bounds) if is_finite(b)]
    if objective is not None and is_finite(objective[2]):
        requirements.append(objective)
    for (dim, sign, limit) in requirements:
        best = _best_run(oracle, region, dim, sign)
        if best is not None and ext_cmp(best, limit) > 0:
            return True
    return False


def _best_run(oracle: AnswerOracle, region, dim: int, sign: int):
    """Least signed total of dimension `dim` over the runs of a live region.

    Queue-based Bellman-Ford from the live initials, each node weighted
    with its own signed weight (the initial's included).  The parent
    pointers close a cycle only around an improving cycle, and a reachable
    improving cycle drives some label below every simple-walk total, after
    which they always hold one.  They are checked after every |live|
    relaxations, O(1) per relaxation (Cherkassky & Goldberg, 1999).
    Returns NEG_INF for an improving cycle, POS_INF when there is no run,
    and None when a live weight is infinite.
    """
    initials, adj, finals, live = region
    weight = {}
    for u in live:
        w = oracle.weights(u)[dim]
        if not is_finite(w):
            return None
        weight[u] = sign * w
    starts = [u for u in initials if u in live]
    if not starts:
        return POS_INF
    dist = {u: weight[u] for u in starts}
    parent = dict.fromkeys(starts)
    queue = deque(starts)
    queued = set(starts)
    budget = len(live)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        du = dist[u]
        for v in adj[u]:
            wv = weight.get(v)
            if wv is None:
                continue  # not live
            d = du + wv
            if v in dist and d >= dist[v]:
                continue
            dist[v] = d
            parent[v] = u
            budget -= 1
            if not budget:
                if _parent_cycle(parent):
                    return NEG_INF
                budget = len(live)
            if v not in queued:
                queued.add(v)
                queue.append(v)
    return min(dist[f] for f in finals)


def _parent_cycle(parent) -> bool:
    """Do the parent pointers of a Bellman-Ford search close a cycle?"""
    walk_of = {}
    for k, start in enumerate(parent):
        u = start
        while u is not None and u not in walk_of:
            walk_of[u] = k
            u = parent[u]
        if u is not None and walk_of[u] == k:
            return True
    return False


def _unwind(trail) -> List[ProductNode]:
    out = []
    while trail is not None:
        node, trail = trail
        out.append(node)
    out.reverse()
    return out


def _derived_box(oracle, bounds, ranges) -> int:
    maxw = 1
    for b in bounds:
        if is_finite(b):
            maxw = max(maxw, abs(b))
    for r in ranges:
        if r is not None:
            maxw = max(maxw, abs(r[0]), abs(r[1]))
    n = len(oracle.graph.real_nodes) + 1
    return max(64, maxw * n * n * (len(bounds) + 1))


# ---------------------------------------------------------------------------
# Public operations over oracles
# ---------------------------------------------------------------------------

def emptiness(o: AnswerOracle, bounds: Sequence, *,
              max_configs: int = MAX_CONFIGS, box: Optional[int] = None) -> bool:
    """Is the constrained path set empty?  Raises BoundExhausted when the
    search cannot decide within its box and budget."""
    res = solve_core(o, bounds, max_configs=max_configs, box=box)
    if res.status == EXHAUSTED:
        raise BoundExhausted("emptiness undecided within the configured box")
    return res.status == EMPTY


def brute_force(o: AnswerOracle, bounds: Sequence, max_len: int):
    """Exhaustive DFS over S-to-T runs whose decoded paths are at most
    `max_len` long; yields (decoded path tuple, final weight vector)."""

    def total_ok(vec) -> bool:
        for v, b in zip(vec, bounds):
            if b is not POS_INF and ext_cmp(v, b) > 0:
                return False
        return True

    def rec(node, vec, run):
        if node.counter == COUNTER_INF and \
                all(v is SINK for v in node.nodes):
            # the all-sink saturated tail is absorbing: no later run differs
            if o.is_final(node) and total_ok(vec):
                decoded = o.decode(run)
                if all(len(p) <= max_len for p in decoded):
                    yield decoded, vec
            return
        if len(run) > max_len + 1:
            return
        for succ in o.successors(node):
            nvec = tuple(ext_add(a, b) for a, b in zip(vec, o.weights(succ)))
            yield from rec(succ, nvec, run + [succ])

    zero = tuple(0 for _ in o.core.dims)
    for init in o.initials():
        vec = tuple(ext_add(a, b) for a, b in zip(zero, o.weights(init)))
        yield from rec(init, vec, [init])


def witnesses_by_end(o: AnswerOracle, bounds: Sequence, *,
                     max_configs: int = MAX_CONFIGS,
                     box: Optional[int] = None):
    """For an oracle with an open target: one decoded feasible run per end
    node reached, and whether the search settled the other end nodes (it
    neither ran out of its budget nor was clipped by the box)."""
    res = solve_core(o, bounds, max_configs=max_configs, box=box)
    decoded = {end: o.decode(run) for end, run in (res.runs or {}).items()}
    return decoded, res.status != EXHAUSTED and not res.clipped


def find_witness(o: AnswerOracle, bounds: Sequence,
                 max_len: Optional[int] = None, *,
                 max_configs: int = MAX_CONFIGS, box: Optional[int] = None):
    """One feasible decoded run or None.  With `max_len` the search is a
    bounded enumeration and None never proves emptiness."""
    if max_len is not None:
        for decoded, _ in brute_force(o, bounds, max_len):
            return decoded
        return None
    res = solve_core(o, bounds, max_configs=max_configs, box=box)
    if res.status == EXHAUSTED:
        raise BoundExhausted("witness search undecided")
    if res.status == EMPTY:
        return None
    return o.decode(res.witness)


# ---------------------------------------------------------------------------
# Extremal values
# ---------------------------------------------------------------------------

def _cycles_at(adj, origin, max_len, max_cycles):
    out = []
    stack = [(origin, [origin])]
    while stack and len(out) < max_cycles:
        node, path = stack.pop()
        for w in adj.get(node, ()):
            if w == origin:
                out.append(list(path))
            elif w not in path and len(path) < max_len:
                stack.append((w, path + [w]))
    return out


def _cycle_delta(o: AnswerOracle, cycle):
    total = None
    for u in cycle:
        w = o.weights(u)
        if any(not is_finite(x) for x in w):
            return None
        total = w if total is None else tuple(a + b for a, b in zip(total, w))
    return total


def _improving(delta, bounds, obj_dim, sign) -> bool:
    """Pumping keeps every bounded dimension non-increasing and strictly
    moves the objective in the wanted direction."""
    for i, d in enumerate(delta):
        if i == obj_dim:
            continue
        if bounds[i] is POS_INF:
            continue
        if d > 0:
            return False
    return sign * delta[obj_dim] < 0


def _has_improving_cycle(o, witness, bounds, obj_dim, sign, max_configs, box):
    """A strictly improving feasibility-preserving cycle combination.

    Candidate cycles come from the explored region around the witness; each
    candidate is certified by re-running the search forced through the
    cycle's anchor node, so pumping it really embeds into a feasible run.
    """
    adj, _ = _explore(o, witness, _EXPLORE_NODES)
    witness_set = set(witness)
    candidates: List[Tuple[ProductNode, Tuple]] = []
    for u in adj:
        for cycle in _cycles_at(adj, u, _MAX_CYCLE_LEN, _MAX_CYCLES):
            d = _cycle_delta(o, cycle)
            if d is not None:
                candidates.append((u, d))
        if len(candidates) > _MAX_CYCLES:
            break

    def certified(anchors) -> bool:
        missing = frozenset(anchors) - witness_set
        if not missing:
            return True
        res = solve_core(o, bounds, via=frozenset(anchors),
                         max_configs=max_configs, box=box)
        return res.status == FOUND

    for (u, d) in candidates:
        if _improving(d, bounds, obj_dim, sign) and certified({u}):
            return True
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            (u1, d1), (u2, d2) = candidates[i], candidates[j]
            combined = tuple(a + b for a, b in zip(d1, d2))
            if _improving(combined, bounds, obj_dim, sign) \
                    and certified({u1, u2}):
                return True
    return False


def extremal(o: AnswerOracle, objective: int, bounds: Sequence, direction: str,
             *, max_configs: int = MAX_CONFIGS, box: Optional[int] = None):
    """Minimum (maximum) of one weight dimension over all feasible runs.

    Empty run set yields +inf for min and -inf for max; a feasibility
    preserving strictly improving cycle yields -inf (min) / +inf (max).

    When the objective is the only tracked dimension (every bound is +inf),
    the extremum is a shortest-run value over the live product.  Finite
    bounds, a region past the exploration cap and infinite live weights
    take the enumeration instead: one collecting exploration lists every
    attainable value inside the counter box; when nothing was clipped that
    set is complete and the extremum exact.  Otherwise a pumpable-cycle
    certificate decides the infinite cases, and a single emptiness probe
    below the best value can still certify optimality.  Raises
    BoundExhausted when inconclusive.
    """
    sign = 1 if direction == "min" else -1
    if all(b is POS_INF for b in bounds):
        region = _live_region(o, max_configs)
        if region is not None:
            best = _best_run(o, region, objective, sign)
            if best is not None:
                return best if sign > 0 else -best

    base = solve_core(o, bounds, objective=(objective, sign, POS_INF),
                      collect=True, max_configs=max_configs, box=box)
    if base.status == EXHAUSTED:
        raise BoundExhausted("extremal search undecided")
    if base.status == EMPTY or not base.values:
        return POS_INF if direction == "min" else NEG_INF

    best = None
    for v in base.values:
        if best is None or sign * ext_cmp(v, best) < 0:
            best = v
    if (direction == "min" and best is NEG_INF) or \
            (direction == "max" and best is POS_INF):
        return best
    if not base.clipped:
        return best

    if _has_improving_cycle(o, base.witness, bounds, objective, sign,
                            max_configs, box):
        return NEG_INF if direction == "min" else POS_INF

    if is_finite(best):
        res = solve_core(o, bounds,
                         objective=(objective, sign, sign * best - 1),
                         max_configs=max_configs, box=box)
        if res.status == EMPTY:
            return best
    raise BoundExhausted("extremal value undecided within the counter box")
