"""Lazy product of constraint automata with node tuples and a step counter.

A product node pairs one state per regular-constraint automaton with the
current node of every path slot (bound slots replay given paths, free slots
are searched) and a counter that saturates once past the longest bound path.
The full node set is never materialized; `successors`/`is_edge` answer
locally, which is what keeps evaluation lazy.

A free slot whose constraint target is `OPEN` may end at any node.  Once
it has finished, the product node remembers where (`end`), so one search
from a source keeps the runs to different targets apart.

Two details make the product agree exactly with the direct semantics:

* an automaton takes its padding self-loop exactly while all of its tracked
  paths have finished (current nodes all sink), and ordinary letters are
  refused there, so each automaton consumes precisely the synchronization
  word of its own paths;
* an arithmetical atom contributes nothing at steps where all of its paths
  have finished, so accumulated weights equal the positionwise sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotAWitness
from .graph import SINK, ext_add, ext_cmp, ext_mul
from .nfa import PAD, UNKNOWN as _UNKNOWN, Nfa, eval_letter, eval_letter_maybe

COUNTER_INF = -1  # the saturated counter value


class _Open:
    """The target of a path constraint left open: any node ends the path."""

    __slots__ = ()

    def __repr__(self):
        return "OPEN"


OPEN = _Open()


class ProductNode:
    """One answer-graph node; hash precomputed (these live in hot sets)."""

    __slots__ = ("states", "counter", "nodes", "prevs", "end", "_hash")

    def __init__(self, states, counter, nodes, prevs, end=None):
        self.states = states
        self.counter = counter
        self.nodes = nodes
        self.prevs = prevs  # previous nodes, only for slots that need them
        self.end = end  # last node of the open slot once it has finished
        self._hash = hash((states, counter, nodes, prevs)) if end is None \
            else hash((states, counter, nodes, prevs, end))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, ProductNode) and self._hash == other._hash \
            and self.counter == other.counter and self.nodes == other.nodes \
            and self.states == other.states and self.prevs == other.prevs \
            and self.end == other.end

    def __repr__(self):
        end = "" if self.end is None else f", end={self.end!r}"
        return (f"ProductNode(states={self.states!r}, counter={self.counter!r}, "
                f"nodes={self.nodes!r}, prevs={self.prevs!r}{end})")


@dataclass(frozen=True)
class SlotSpec:
    var: str
    bound_path: Optional[Tuple[object, ...]]  # None for free slots
    # (src, tgt, edge lab); tgt is OPEN for a path that may end anywhere
    constraints: Tuple[Tuple[object, object, str], ...]
    track_prev: bool


@dataclass(frozen=True)
class DimSpec:
    """One weight dimension: a linear combination of atoms over slots."""
    terms: Tuple[Tuple[int, str, Tuple[int, ...]], ...]  # (coef, labelling, slots)


@dataclass(frozen=True)
class CompiledCore:
    slots: Tuple[SlotSpec, ...]
    nfas: Tuple[Tuple[Nfa, Tuple[int, ...]], ...]  # automaton + its slot indices
    dims: Tuple[DimSpec, ...]


def _targets(nfa: Nfa, states, window, pad: bool, graph, evaluate):
    """Target states of the automaton's moves out of `states` on one letter
    window.  While all of its paths have finished (`pad`) only the padding
    move applies, and ordinary letters only apply before that."""
    for s in states:
        for (letter, t) in nfa.moves(s):
            if letter is PAD:
                if pad:
                    yield t
            elif not pad and evaluate(letter, window, graph, nfa.variables):
                yield t


class AnswerOracle:
    """On-the-fly adjacency oracle for the answer graph of one query core."""

    def __init__(self, core: CompiledCore, graph):
        self.core = core
        self.graph = graph
        self.slots = core.slots
        self.k = len(core.slots)
        bound_lengths = [len(s.bound_path) for s in core.slots
                         if s.bound_path is not None]
        self.N = max(1, max(bound_lengths, default=0))
        self._tracked = tuple(i for i, s in enumerate(core.slots) if s.track_prev)
        self._prev_pos = {i: p for p, i in enumerate(self._tracked)}
        # the engine leaves at most one target open
        self.open_slot = next(
            (i for i, s in enumerate(core.slots)
             if any(tgt is OPEN for (_, tgt, _) in s.constraints)), None)
        self._triggers = self._join_order_triggers()
        self._touched: Dict[ProductNode, ProductNode] = {}
        self._final_cache: Dict[ProductNode, bool] = {}
        self._succ_cache: Dict[ProductNode, Tuple[ProductNode, ...]] = {}
        self._weight_cache: Dict[ProductNode, Tuple] = {}
        self.feasible = all(self._bound_path_ok(s) for s in core.slots
                            if s.bound_path is not None)

    # -- instrumentation -------------------------------------------------------

    def _touch(self, node: ProductNode) -> ProductNode:
        # interning keeps equal nodes identical, so hot-path equality is `is`
        return self._touched.setdefault(node, node)

    @property
    def touch_count(self) -> int:
        return len(self._touched)

    def state_space_size(self) -> int:
        size = self.N + 1
        for nfa, _ in self.core.nfas:
            size *= nfa.n_states
        return size * (len(self.graph.real_nodes) + 1) ** self.k

    # -- bound path validation --------------------------------------------------

    def _bound_path_ok(self, slot: SlotSpec) -> bool:
        p = slot.bound_path
        for (src, tgt, edge) in slot.constraints:
            if not p or p[0] != src or p[-1] != tgt:
                return False
            for a, b in zip(p, p[1:]):
                if ext_cmp(self.graph.lookup(edge, (a, b)), 0) == 0:
                    return False
        return True

    # -- node structure -----------------------------------------------------------

    def _slot_value_at(self, slot: SlotSpec, counter: int):
        p = slot.bound_path
        if counter != COUNTER_INF and 1 <= counter <= len(p):
            return p[counter - 1]
        return SINK

    def _prevs_for(self, nodes_from: Tuple) -> Tuple:
        return tuple(nodes_from[i] for i in self._tracked)

    def _join_order_triggers(self):
        """For each slot position, the automata whose slots are all decided
        once that position is filled (enables early pruning in joins)."""
        triggers: List[List[int]] = [[] for _ in self.slots]
        for ai, (_, slot_idxs) in enumerate(self.core.nfas):
            if slot_idxs:
                triggers[max(slot_idxs)].append(ai)
        return triggers

    def _first_letter_feasible(self, ai: int, partial: List) -> bool:
        """Could the automaton consume its first window from these initial
        values?  Next-position references are unknown and assumed fine."""
        nfa, slot_idxs = self.core.nfas[ai]
        pad = all(partial[i] is SINK for i in slot_idxs)
        window = []
        for i in slot_idxs:
            window.extend((SINK, partial[i], _UNKNOWN))
        moves = _targets(nfa, nfa.initials, window, pad, self.graph,
                         eval_letter_maybe)
        return next(moves, None) is not None

    def initials(self):
        """Stream the set S; deterministic order, sink candidates first.

        Free slot values are joined with backtracking: an initial tuple is
        abandoned as soon as some automaton cannot consume any first window
        compatible with the decided values.
        """
        if not self.feasible:
            return
        per_slot: List[List[object]] = []
        for slot in self.slots:
            if slot.bound_path is not None:
                per_slot.append([self._slot_value_at(slot, 1)])
            elif slot.constraints:
                # a constrained path starts at its source; the sink cannot
                # head a path, so a sink source is unsatisfiable
                srcs = {src for (src, _, _) in slot.constraints}
                good = len(srcs) == 1 and next(iter(srcs)) is not SINK
                per_slot.append(sorted(srcs, key=str) if good else [])
            else:
                per_slot.append([SINK] + list(self.graph.real_nodes))
        triggers = self._triggers
        state_choices = [sorted(nfa.initials) for nfa, _ in self.core.nfas]
        prev_blank = tuple(SINK for _ in self._tracked)
        k = self.k
        partial: List[object] = [None] * k

        def rec(idx: int):
            if idx == k:
                for states in iproduct(*state_choices):
                    yield self._touch(ProductNode(tuple(states), 1,
                                                  tuple(partial), prev_blank))
                return
            for v in per_slot[idx]:
                partial[idx] = v
                if all(self._first_letter_feasible(ai, partial)
                       for ai in triggers[idx]):
                    yield from rec(idx + 1)
            partial[idx] = None

        yield from rec(0)

    def is_initial(self, u: ProductNode) -> bool:
        if u.counter != 1 or u.end is not None \
                or any(p is not SINK for p in u.prevs):
            return False
        for (nfa, _), s in zip(self.core.nfas, u.states):
            if s not in nfa.initials:
                return False
        if not self.feasible:
            return False
        for i, slot in enumerate(self.slots):
            v = u.nodes[i]
            if slot.bound_path is not None:
                if v != self._slot_value_at(slot, 1):
                    return False
            elif slot.constraints:
                if any(v != src or src is SINK
                       for (src, _, _) in slot.constraints):
                    return False
            elif v is not SINK and v not in self.graph.nodes:
                return False
        return True

    def is_final(self, u: ProductNode) -> bool:
        hit = self._final_cache.get(u)
        if hit is None:
            hit = (u.counter == COUNTER_INF
                   and all(v is SINK for v in u.nodes)
                   and all(s in nfa.finals
                           for (nfa, _), s in zip(self.core.nfas, u.states)))
            self._final_cache[u] = hit
        return hit

    # -- transitions -----------------------------------------------------------

    def _next_counter(self, j: int) -> int:
        if j == COUNTER_INF or j >= self.N:
            return COUNTER_INF
        return j + 1

    def _free_slot_candidates(self, slot: SlotSpec, cur) -> List[object]:
        if cur is SINK:
            return [SINK]
        if not slot.constraints:
            return [SINK, *self.graph.real_nodes]
        out: List[object] = []
        if all(tgt is OPEN or cur == tgt for (_, tgt, _) in slot.constraints):
            out.append(SINK)
        edges = [edge for (_, _, edge) in slot.constraints]
        pool = self.graph.out_neighbours(edges[0], cur)
        if pool is None:  # no index (auxiliary or nonzero-default labelling)
            pool = self.graph.real_nodes
        else:
            edges = edges[1:]
        lookup = self.graph.lookup
        out.extend(v for v in pool
                   if all(ext_cmp(lookup(edge, (cur, v)), 0) != 0
                          for edge in edges))
        return out

    def _window(self, u: ProductNode, next_nodes, slot_idxs) -> Tuple:
        """The letter window of the given slots on the step u -> next_nodes."""
        window = []
        for i in slot_idxs:
            p = self._prev_pos.get(i)
            window.extend((SINK if p is None else u.prevs[p], u.nodes[i],
                           next_nodes[i]))
        return tuple(window)

    def _moves(self, ai: int, u: ProductNode, next_nodes) -> List:
        """Sorted next states of automaton `ai` on the step u -> next_nodes;
        only the automaton's own slots of `next_nodes` need to be decided."""
        nfa, slot_idxs = self.core.nfas[ai]
        window = self._window(u, next_nodes, slot_idxs)
        pad = all(u.nodes[i] is SINK for i in slot_idxs)
        # the module global, looked up per call, so it can be instrumented
        return sorted(set(_targets(nfa, (u.states[ai],), window, pad,
                                   self.graph, eval_letter)))

    def _end_after(self, u: ProductNode, next_nodes: Tuple):
        """The open slot's end on the step u -> next_nodes: its last node,
        set on the step that finishes it and kept from then on."""
        o = self.open_slot
        if o is None or u.end is not None or next_nodes[o] is not SINK:
            return u.end
        return u.nodes[o]

    def _nfa_moves(self, u: ProductNode, next_nodes: Tuple):
        """Per automaton, the list of reachable next states on this edge."""
        all_moves = []
        for ai in range(len(self.core.nfas)):
            targets = self._moves(ai, u, next_nodes)
            if not targets:
                return None
            all_moves.append(targets)
        return all_moves

    def successors(self, u: ProductNode):
        """Exactly { w : is_edge(u, w) }, deterministic order, cached."""
        hit = self._succ_cache.get(u)
        if hit is None:
            hit = tuple(self._successors(u))
            self._succ_cache[u] = hit
        return hit

    def _successors(self, u: ProductNode):
        j2 = self._next_counter(u.counter)
        per_slot: List[List[object]] = []
        for i, slot in enumerate(self.slots):
            if slot.bound_path is not None:
                per_slot.append([self._slot_value_at(slot, j2)])
            else:
                cands = self._free_slot_candidates(slot, u.nodes[i])
                if not cands:
                    return
                per_slot.append(cands)
        triggers = self._triggers
        prevs = self._prevs_for(u.nodes)
        opened = self.open_slot is not None
        k = self.k
        partial: List[object] = [None] * k
        # each automaton's next states, computed once its last slot is
        # decided; with no slots at all there are no triggers
        moves = self._nfa_moves(u, ()) if k == 0 \
            else [None] * len(self.core.nfas)
        if moves is None:
            return

        def rec(idx: int):
            if idx == k:
                nodes = tuple(partial)
                end = self._end_after(u, nodes) if opened else None
                for states in iproduct(*moves):
                    yield self._touch(ProductNode(tuple(states), j2,
                                                  nodes, prevs, end))
                return
            for v in per_slot[idx]:
                partial[idx] = v
                for ai in triggers[idx]:
                    moves[ai] = self._moves(ai, u, partial)
                    if not moves[ai]:
                        break
                else:
                    yield from rec(idx + 1)
            partial[idx] = None

        yield from rec(0)

    def is_edge(self, u: ProductNode, w: ProductNode) -> bool:
        if w.counter != self._next_counter(u.counter):
            return False
        if w.prevs != self._prevs_for(u.nodes) \
                or w.end != self._end_after(u, w.nodes):
            return False
        for i, slot in enumerate(self.slots):
            cur, nxt = u.nodes[i], w.nodes[i]
            if slot.bound_path is not None:
                if nxt != self._slot_value_at(slot, w.counter):
                    return False
            elif cur is SINK:
                if nxt is not SINK:
                    return False
            elif nxt is SINK:
                if any(tgt is not OPEN and cur != tgt
                       for (_, tgt, _) in slot.constraints):
                    return False
            else:
                for (_, _, edge) in slot.constraints:
                    if ext_cmp(self.graph.lookup(edge, (cur, nxt)), 0) == 0:
                        return False
        moves = self._nfa_moves(u, w.nodes)
        if moves is None:
            return False
        self._touch(w)
        return all(s in targets for s, targets in zip(w.states, moves))

    # -- weights -----------------------------------------------------------------

    def weights(self, u: ProductNode) -> Tuple:
        """Per-dimension value of the arithmetical sums at this step.

        Atoms whose paths have all finished contribute nothing, so the
        accumulated vector along a run equals the true positionwise sums.
        """
        hit = self._weight_cache.get(u)
        if hit is not None:
            return hit
        out = []
        for dim in self.core.dims:
            total = 0
            for (coef, lab, slot_idxs) in dim.terms:
                selection = tuple(u.nodes[i] for i in slot_idxs)
                if all(v is SINK for v in selection):
                    continue
                total = ext_add(total, ext_mul(coef,
                                               self.graph.lookup(lab, selection)))
            out.append(total)
        return self._weight_cache.setdefault(u, tuple(out))

    _AUX_RANGE_CAP = 512  # max tuples to evaluate for an auxiliary labelling

    def _labelling_values(self, name: str):
        """All values a labelling can take, or None when not enumerable."""
        stored = self.graph.stored_values(name)
        if stored is not None:
            return list(stored)
        arity = self.graph.arity_of(name)
        pool = list(self.graph.nodes)
        if len(pool) ** arity > self._AUX_RANGE_CAP:
            return None
        return [self.graph.lookup(name, args)
                for args in iproduct(pool, repeat=arity)]

    def weight_ranges(self):
        """Conservative per-dimension (lo, hi) bounds, None when unknown.

        Base-graph labellings enumerate their stored values; small auxiliary
        labellings are evaluated over the whole domain (memoized lookups).
        """
        if not hasattr(self, "_ranges"):
            out = []
            for dim in self.core.dims:
                lo, hi = 0, 0
                known = True
                for (coef, lab_name, _) in dim.terms:
                    values = self._labelling_values(lab_name)
                    if values is None or \
                            any(not isinstance(v, int) for v in values):
                        known = False
                        break
                    contrib = [coef * v for v in values + [0]]  # 0: padding
                    lo += min(contrib)
                    hi += max(contrib)
                out.append((lo, hi) if known else None)
            self._ranges = out
        return self._ranges

    # -- decoding -------------------------------------------------------------

    def decode(self, product_path: Sequence[ProductNode]) -> Tuple[Tuple, ...]:
        """Strip sink padding from an S-to-T run, yielding the slot paths."""
        if not product_path:
            raise NotAWitness("empty product path")
        if not self.is_initial(product_path[0]):
            raise NotAWitness("run does not start in S")
        if not self.is_final(product_path[-1]):
            raise NotAWitness("run does not end in T")
        for a, b in zip(product_path, product_path[1:]):
            if not self.is_edge(a, b):
                raise NotAWitness("consecutive nodes are not edge-connected")
        paths = []
        for i in range(self.k):
            nodes = []
            for u in product_path:
                v = u.nodes[i]
                if v is SINK:
                    break
                nodes.append(v)
            paths.append(tuple(nodes))
        return tuple(paths)
