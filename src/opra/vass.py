"""Z-reachability on integer-vector-labelled graphs, and constrained search
and extrema over answer oracles.

The solver works at desk scale.  A label is a product node plus the values
of the bounded dimensions.  Feasibility is a first-in-first-out label
search that drops a label no lower than one kept at its node and clamps
values to a counter box, with an explicit inconclusive status whenever the
box or the label budget is exhausted, never a wrong answer.  Dimensions
whose per-step weights cannot go negative are pruned as soon as they
exceed their bound.  Extrema take one label kernel over the live product
region.  Explicit Z-reachability is breadth-first over (node, counter
vector) configurations.

Infinite bounds and infinite atom values are handled semantically: a
dimension that reaches minus infinity is satisfied forever, one that
reaches plus infinity can never meet a finite bound again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from operator import le as _int_le
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BoundExhausted, DimensionMismatch, UndefinedInfinitySum
from .graph import NEG_INF, POS_INF, SINK, ext_add, ext_cmp, ext_min, is_finite
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
    # node -> its (vector, successor) pairs in edge order
    _out: Dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: Dict = {}
        for (u, vec, w) in self.edges:
            if len(vec) != self.dimension:
                raise DimensionMismatch(
                    f"edge vector {vec!r} has length {len(vec)}, "
                    f"dimension is {self.dimension}")
            out.setdefault(u, []).append((vec, w))
        object.__setattr__(self, "_out", out)

    def successors(self, node):
        return list(self._out.get(node, ()))

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
    runs: Optional[Dict[object, List[ProductNode]]] = None  # per end node


def solve_core(oracle: AnswerOracle, bounds: Sequence, *,
               max_configs: int = MAX_CONFIGS,
               box: Optional[int] = None) -> CoreResult:
    """Find an S-to-T run whose accumulated weights satisfy the bounds.

    `bounds` are extended integers per dimension (POS_INF drops a dimension
    from tracking).  A label is a product node plus its tracked values.  The
    search is breadth-first (first in, first out) over labels, and draws
    the next initial only when its queue runs dry, so witnesses are short;
    deterministic order.  Every bound reads `sum <= bound`, so a new label
    is dropped when one kept at its node is no greater in every value
    (Irnich & Desaulniers, 2005).  A kept label that a newer one outdoes
    leaves the node's antichain but stays queued: behind a negative cycle a
    newer label arrives before each queued one is expanded.  A final label
    that meets the bounds is caught when it is generated, not when it is
    expanded.  More than `max_configs` kept labels give up.

    A dimension that can only grow is dead above its bound, one that can
    only shrink is clamped at its bound once it meets it, and any value
    past the counter box `box` is a clip (None derives a box from the
    weights and bounds): dropped above it, and below it clamped at the
    floor, or dropped for a dimension that can only shrink.  A clamped
    label stands for lower values and is no less feasible.  When the box
    clips the counter space, a weight-free reachability pass can still
    certify emptiness structurally.

    When the oracle leaves a target open, the search keeps the first run per
    end node in `runs` and goes on until every node has one or the space is
    exhausted.
    """
    dims = len(oracle.core.dims)
    if len(bounds) != dims:
        raise DimensionMismatch(f"{len(bounds)} bounds for {dims} dimensions")

    tracked = [i for i, b in enumerate(bounds) if b is not POS_INF]
    ranges = oracle.weight_ranges()
    if box is None:
        box = _derived_box(oracle, bounds, ranges)
    caps = [(d, bounds[d], _direction(ranges[d], bounds[d])) for d in tracked]
    weights = oracle.weights
    clipped = False
    le = _int_le  # compares labels until some value is -inf

    def arrive(node: ProductNode, values: Tuple):
        """New tracked vector after accumulating this node's weights, or
        None when the label is certainly dead or clipped by the box."""
        nonlocal clipped, le
        w = weights(node)
        out = []
        for v, (d, b, direction) in zip(values, caps):
            wd = w[d]
            if type(v) is int and type(wd) is int:
                nv = v + wd
            else:
                nv = ext_add(v, wd)
                if nv is POS_INF:
                    return None  # can never meet a finite or -inf bound
                out.append(nv)  # -inf meets every bound for good
                le = _le
                continue
            if direction > 0 and nv > b:
                return None
            elif direction < 0 and nv <= b:
                nv = b  # met for good
            elif nv > box:
                clipped = True
                return None
            elif nv < -box:
                clipped = True
                if direction:
                    return None
                nv = -box
            out.append(nv)
        return tuple(out)

    def check_final(values) -> bool:
        return all(_le(v, cap[1]) for v, cap in zip(values, caps))

    front: Dict[ProductNode, List[Tuple]] = {}  # node -> antichain of values

    def keep(node, values) -> bool:
        """Add a label to its node's antichain unless one there is no
        greater; True when kept."""
        labels = front.get(node)
        if labels is None:
            front[node] = [values]
            return True
        for o in labels:
            if all(map(le, o, values)):
                return False
        labels[:] = [o for o in labels if not all(map(le, values, o))]
        labels.append(values)
        return True

    runs: Optional[Dict[object, List[ProductNode]]] = \
        None if oracle.open_slot is None else {}
    n_ends = len(oracle.graph.real_nodes)
    zero = tuple(0 for _ in tracked)
    is_final = oracle.is_final
    successors = oracle.successors
    init_iter = oracle.initials()
    queue: deque = deque()
    kept = 0
    while runs is None or len(runs) < n_ends:
        if queue:
            if kept > max_configs:
                return CoreResult(EXHAUSTED, clipped=True, runs=runs)
            node, values, trail = queue.popleft()
            batch = ((succ, arrive(succ, values)) for succ in successors(node))
        else:
            nxt = next(init_iter, None)
            if nxt is None:
                break
            trail = None
            batch = ((nxt, arrive(nxt, zero)),)
        for succ, nvalues in batch:
            if nvalues is None or not keep(succ, nvalues):
                continue
            kept += 1
            ntrail = (succ, trail)
            if not is_final(succ) or not check_final(nvalues):
                queue.append((succ, nvalues, ntrail))
            elif runs is None:
                return CoreResult(FOUND, _unwind(ntrail), clipped=clipped)
            elif succ.end not in runs:
                # every run through a final node ends where it does
                runs[succ.end] = _unwind(ntrail)
                if len(runs) == n_ends:
                    break
    if runs:
        return CoreResult(FOUND, next(iter(runs.values())), clipped=clipped,
                          runs=runs)
    if clipped:
        if _certify_empty(oracle, bounds, max_configs):
            return CoreResult(EMPTY)
        return CoreResult(EXHAUSTED, clipped=True)
    return CoreResult(EMPTY)


def _direction(rng, bound) -> int:
    """1 when a dimension's weights can only grow towards its finite bound
    (a value above it is dead), -1 when they can only shrink, else 0."""
    if rng is None or not is_finite(bound):
        return 0
    return 1 if rng[0] >= 0 else -1 if rng[1] <= 0 else 0


def _live_region(oracle: AnswerOracle, max_configs: int):
    """The product region that S-to-T runs can use.

    Returns (initials, adjacency, finals, live): breadth-first from the
    initials, with `live` holding the nodes that reach a final; None when
    more than `max_configs` nodes are reachable.
    """
    initials = list(dict.fromkeys(oracle.initials()))
    queue = deque(initials)
    seen = set(initials)
    adj: Dict[ProductNode, List[ProductNode]] = {}
    rev: Dict[ProductNode, List[ProductNode]] = {}
    while queue:
        if len(seen) > max_configs:
            return None
        u = queue.popleft()
        adj[u] = succs = list(oracle.successors(u))
        for w in succs:
            rev.setdefault(w, []).append(u)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    finals = [u for u in adj if oracle.is_final(u)]
    live = set(finals)
    stack = list(finals)
    while stack:
        for p in rev.get(stack.pop(), ()):
            if p not in live:
                live.add(p)
                stack.append(p)
    return initials, adj, finals, live


def _certify_empty(oracle: AnswerOracle, bounds, max_configs: int) -> bool:
    """Emptiness certificates that survive counter clipping.

    Either no final node is structurally reachable, or along every run some
    dimension's best possible total already violates its bound (the
    shortest run per dimension over the live region, abandoned for
    dimensions the kernel cannot decide).
    """
    region = _live_region(oracle, max_configs)
    if region is None:
        return False  # more than the budget of nodes is reachable
    if not region[2]:
        return True
    return any(is_finite(limit) and
               ext_cmp(_least(oracle, region, dim, 1, max_configs), limit) > 0
               for dim, limit in enumerate(bounds))


def _least(oracle: AnswerOracle, region, dim: int, sign: int,
           max_configs: int):
    """A lower bound of the signed totals of `dim` over all runs of the
    region, bounds ignored: the least one, or NEG_INF when undecided."""
    try:
        return _best_run(oracle, region, dim, sign,
                         (POS_INF,) * len(oracle.core.dims), max_configs)
    except (BoundExhausted, UndefinedInfinitySum):
        return NEG_INF


def _le(a, b) -> bool:
    return a <= b if type(a) is int and type(b) is int else ext_cmp(a, b) <= 0


def _best_run(oracle: AnswerOracle, region, dim: int, sign: int, bounds,
              max_configs: int, box: Optional[int] = None):
    """Least signed total of dimension `dim` over the feasible runs of a
    live region; POS_INF when there is none.

    A label is a live node plus the values of the bounded dimensions (bound
    not +inf), each node adding its own weights.  A dimension that can
    only grow is dead above its bound, one that can only shrink is clamped
    at its bound once it meets it, and any other is dropped above the
    counter box and clamped at its floor, a clip either way.  A label is
    dropped once its signed total is +inf, and when another at its node is
    no worse in every value and in the total (Irnich & Desaulniers, 2005).

    With no negative live signed weight, labels are settled in objective
    order.  Otherwise the search is a first-in-first-out Bellman-Ford (a
    heap can take exponential time there) whose parent pointers, checked
    after every |labels| relaxations, close a cycle only around an
    improving cycle, and always do once a reachable one has driven some
    label below every simple-walk total (Cherkassky & Goldberg, 1999).  A
    label that outdoes its own ancestor closes one too.  Such a cycle gives
    NEG_INF once the label's walk goes on to a feasible final without a
    +inf weight; otherwise all labels on that walk are dead.  The search
    stops once a feasible final meets the least total with the bounds
    dropped.  Raises BoundExhausted once labels plus label comparisons pass
    `max_configs`, and when a clip might hide a better run.
    """
    initials, adj, finals, live = region
    weights = oracle.weights
    cost = {u: weights(u)[dim] for u in live}
    if sign < 0:
        cost = {u: -w for u, w in cost.items()}
    settle = all(type(w) is int and w >= 0 or w is POS_INF
                 for w in cost.values())
    caps = [(d, b) for d, b in enumerate(bounds) if b is not POS_INF]
    if caps:
        ranges = oracle.weight_ranges()
        caps = [(d, b, _direction(ranges[d], b)) for d, b in caps]
        if box is None:
            box = _derived_box(oracle, bounds, ranges)
    clip_low = POS_INF  # least signed total of a clipped label
    best = POS_INF  # least signed total of a feasible final label

    def carry(values, u, total):
        """Bounded values after node `u`, or None; clips book `total`."""
        nonlocal clip_low
        w = weights(u)
        out = []
        for v, (d, b, direction) in zip(values, caps):
            nv = ext_add(v, w[d])
            if type(nv) is int:
                if direction > 0 and nv > b:
                    return None
                if direction < 0:
                    nv = max(nv, b)
                elif not direction and abs(nv) > box:
                    clip_low = ext_min(clip_low, total)
                    if nv > 0:
                        return None
                    nv = -box  # stands for lower values, no less feasible
            elif nv is POS_INF:
                return None  # can never meet a finite or -inf bound
            out.append(nv)
        return tuple(out)

    def feasible(values) -> bool:
        return all(_le(v, cap[1]) for v, cap in zip(values, caps))

    final = set(finals)
    front: Dict[ProductNode, Dict] = {}  # node -> values -> total, live ones
    # label key (node, values) -> parent key; None for roots and -inf labels
    parent: Dict = {}
    queue = [] if settle else deque()
    queued = set()
    dead = set()  # labels that cannot reach a feasible final
    compared = 0  # label comparisons, charged to the budget with the labels
    pumped = None  # a label closing an improving cycle
    order = count()

    def offer(v, values, total, pkey) -> bool:
        """Keep a label unless one at `v` is no worse; True when kept."""
        nonlocal best, compared, pumped
        if total is POS_INF or dead and (v, values) in dead:
            return False
        labels = front.setdefault(v, {})
        old = labels.get(values)
        if old is not None:
            if _le(old, total):
                return False
        elif labels:
            compared += len(labels)
            if any(_le(t, total) and all(map(_le, o, values))
                   for o, t in labels.items()):
                return False
            for o in [o for o, t in labels.items()
                      if _le(total, t) and all(map(_le, values, o))]:
                # outdoing an ancestor closes a cycle that can be pumped
                if labels.pop(o) != total and not settle \
                        and _on_chain(parent, pkey, (v, o)):
                    pumped = (v, values)
        labels[values] = total
        if v in final and (not caps or feasible(values)):
            best = ext_min(best, total)
        key = (v, values)
        # a -inf label cannot improve, so it closes no improving cycle
        parent[key] = None if total is NEG_INF else pkey
        if len(parent) + compared > max_configs:
            raise BoundExhausted("extremal search past its label budget")
        if settle:
            heappush(queue, (total, next(order), key))
        elif key not in queued:
            queued.add(key)
            queue.append(key)
        return True

    def escapes(key) -> bool:
        """Does the walk of label `key`, through an improving cycle, go on
        to a feasible final without a +inf signed weight?  If not, every
        label met on the way is dead; a clip on the way is booked."""
        if not caps and POS_INF not in cost.values():
            return True  # every live node reaches a final
        seen = {key}
        stack = [key]
        while stack:
            u, values = stack.pop()
            if u in final and feasible(values):
                return True
            for v in adj[u]:
                if cost.get(v, POS_INF) is POS_INF:
                    continue  # not live, or worth +inf
                nkey = (v, carry(values, v, NEG_INF) if caps else ())
                if nkey[1] is not None and nkey not in seen \
                        and nkey not in dead:
                    seen.add(nkey)
                    stack.append(nkey)
            if len(seen) > max_configs:
                raise BoundExhausted("extremal search past its label budget")
        for u, values in seen:
            front.get(u, {}).pop(values, None)
        dead.update(seen)
        return False

    for u in initials:
        values = None if u not in live else \
            carry((0,) * len(caps), u, cost[u]) if caps else ()
        if values is not None:
            offer(u, values, cost[u], None)
    # no run beats the least total with the bounds dropped
    floor = _least(oracle, region, dim, sign, max_configs) if caps else None
    budget = len(live)
    while queue and best != floor:
        if settle:
            total, _, key = heappop(queue)
        else:
            key = queue.popleft()
            queued.discard(key)
        u, values = key
        current = front[u].get(values)
        if current is None or settle and current != total:
            continue  # outdone since
        total = current
        if settle and _le(best, total):
            break  # no label left ends below the best final one
        for v in adj[u]:
            wv = cost.get(v)
            if wv is None:
                continue  # not live
            nt = total + wv if type(total) is int and type(wv) is int \
                else ext_add(total, wv)
            nvalues = carry(values, v, nt) if caps else ()
            if nvalues is None or not offer(v, nvalues, nt, key):
                continue
            budget -= 1
            if not budget:
                budget = max(len(parent), len(live))
                pumped = pumped or _parent_cycle(parent)
            if pumped is not None:
                if escapes(pumped):
                    return NEG_INF
                parent[pumped] = None  # its cycle is dead
                pumped = None
    if clip_low is not POS_INF and best is not NEG_INF \
            and (not settle or ext_cmp(clip_low, best) < 0) \
            and floor != best:
        raise BoundExhausted("extremal value undecided within the counter box")
    return best


def _on_chain(parent, key, target) -> bool:
    """Is `target` on the parent chain that starts at `key`?"""
    for _ in range(len(parent)):
        if key is None or key == target:
            return key is not None
        key = parent[key]
    return False


def _parent_cycle(parent):
    """A key on a cycle of a Bellman-Ford search's parent pointers, or None."""
    walk_of = {}
    for k, start in enumerate(parent):
        u = start
        while u is not None and u not in walk_of:
            walk_of[u] = k
            u = parent[u]
        if u is not None and walk_of[u] == k:
            return u
    return None


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

def extremal(o: AnswerOracle, objective: int, bounds: Sequence, direction: str,
             *, max_configs: int = MAX_CONFIGS, box: Optional[int] = None):
    """Minimum (maximum) of one weight dimension over all feasible runs.

    Empty run set yields +inf for min and -inf for max; an improving cycle
    that pumps inside a feasible run yields -inf (min) / +inf (max).  The
    value is the least signed total `_best_run` finds over the live product
    region, with labels that carry the values of the bounded dimensions.
    Raises BoundExhausted when inconclusive (more than `max_configs`
    product nodes, or labels and comparisons, or a counter-box clip that
    might hide a better run) unless `_certify_empty` shows that no run is
    feasible.
    """
    sign = 1 if direction == "min" else -1
    region = _live_region(o, max_configs)
    if region is None:
        raise BoundExhausted("extremal search past its node budget")
    try:
        best = _best_run(o, region, objective, sign, bounds, max_configs, box)
    except BoundExhausted:
        if not _certify_empty(o, bounds, max_configs):
            raise
        best = POS_INF  # no feasible run at all
    return best if sign > 0 else -best
