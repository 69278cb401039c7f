"""Regular constraints as NFAs over node-constraint letters.

Letters stay symbolic: a letter is a conjunction of node constraints and is
decided per window at evaluation time, never expanded over the node alphabet.
`match_direct` is an independent recursive matcher used as the testing oracle
for the compiled automata and the product construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Sequence, Tuple

from .graph import SINK, ext_cmp
from .model import (
    Compare,
    NCConst,
    NCLabel,
    NCSink,
    PosRef,
    RAlt,
    RConcat,
    RLetter,
    RStar,
    Regex,
    Top,
    letter_refs,
    regex_variables,
)


class _Pad:
    """Letter taken while all tracked paths have finished (current nodes sink)."""

    __slots__ = ()

    def __repr__(self):
        return "PAD"


PAD = _Pad()


@dataclass(frozen=True)
class Nfa:
    variables: Tuple[str, ...]
    n_states: int
    initials: FrozenSet[int]
    finals: FrozenSet[int]
    # state -> tuple of (letter, successor); letters are RLetter or PAD
    transitions: Tuple[Tuple[Tuple[object, int], ...], ...]

    def moves(self, state: int):
        return self.transitions[state]

    @cached_property
    def reads_next(self) -> bool:
        """Does some letter read a next position (`@+1`)?"""
        return any(ref.offset == 1
                   for moves in self.transitions for (letter, _) in moves
                   if letter is not PAD for ref in letter_refs(letter))


# ---------------------------------------------------------------------------
# Letter evaluation
# ---------------------------------------------------------------------------

def _var_index(variables: Sequence[str]) -> Dict[str, int]:
    return {v: i for i, v in enumerate(variables)}


def _resolve_node(ref: PosRef, window, index):
    return window[3 * index[ref.var] + (ref.offset + 1)]


def _cmp_holds(op: str, c: int) -> bool:
    if op == "<=":
        return c <= 0
    if op == "<":
        return c < 0
    if op == "=":
        return c == 0
    if op == ">":
        return c > 0
    if op == ">=":
        return c >= 0
    return c != 0  # "!="


def eval_letter(letter, window, graph, variables: Sequence[str] | None = None) -> bool:
    """Decide a conjunction of node constraints on one synchronized window.

    `window` is the flat 3k tuple (previous, current, next per variable);
    `variables` fixes the variable order and defaults to the letter's own
    first-appearance order.
    """
    if letter is PAD:
        k = len(window) // 3
        return all(window[3 * i + 1] is SINK for i in range(k))
    if variables is None:
        variables = tuple(dict.fromkeys(r.var for r in letter_refs(letter)))
    index = _var_index(variables)
    for nc in letter.conjuncts:
        if isinstance(nc, Top):
            continue
        if not _compare_holds(nc, window, graph, index):
            return False
    return True


def _compare_holds(nc: Compare, window, graph, index) -> bool:
    lhs, rhs = nc.lhs, nc.rhs
    if isinstance(lhs, (PosRef, NCSink)) or isinstance(rhs, (PosRef, NCSink)):
        left = SINK if isinstance(lhs, NCSink) else _resolve_node(lhs, window, index)
        right = SINK if isinstance(rhs, NCSink) else _resolve_node(rhs, window, index)
        same = left is right or left == right
        return same if nc.op == "=" else not same
    lv = _nc_value(lhs, window, graph, index)
    rv = _nc_value(rhs, window, graph, index)
    return _cmp_holds(nc.op, ext_cmp(lv, rv))


def _nc_value(v, window, graph, index):
    if isinstance(v, NCConst):
        return v.value
    args = tuple(_resolve_node(r, window, index) for r in v.refs)
    return graph.lookup(v.name, args)


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "?"


UNKNOWN = _Unknown()


def eval_letter_maybe(letter, window, graph, variables) -> bool:
    """Partial evaluation: False only when a conjunct whose operands are all
    known is definitely false; unknown window entries never refute."""
    if letter is PAD:
        k = len(window) // 3
        return all(window[3 * i + 1] is SINK for i in range(k))
    index = _var_index(variables)
    for nc in letter.conjuncts:
        if isinstance(nc, Top):
            continue
        operands = []
        known = True
        for v in (nc.lhs, nc.rhs):
            if isinstance(v, (PosRef,)):
                node = _resolve_node(v, window, index)
                if node is UNKNOWN:
                    known = False
                    break
                operands.append(node)
            elif isinstance(v, NCLabel):
                args = tuple(_resolve_node(r, window, index) for r in v.refs)
                if any(a is UNKNOWN for a in args):
                    known = False
                    break
        if known and not _compare_holds(nc, window, graph, index):
            return False
    return True


# ---------------------------------------------------------------------------
# Thompson construction
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self):
        self.eps: list = []
        self.letters: list = []

    def state(self) -> int:
        self.eps.append([])
        self.letters.append([])
        return len(self.eps) - 1

    def add_eps(self, a, b):
        self.eps[a].append(b)

    def add_letter(self, a, letter, b):
        self.letters[a].append((letter, b))

    def build(self, node: Regex):
        if isinstance(node, RLetter):
            s, t = self.state(), self.state()
            self.add_letter(s, node, t)
            return s, t
        if isinstance(node, RConcat):
            first = None
            prev_out = None
            for part in node.parts:
                s, t = self.build(part)
                if first is None:
                    first = s
                else:
                    self.add_eps(prev_out, s)
                prev_out = t
            return first, prev_out
        if isinstance(node, RAlt):
            s, t = self.state(), self.state()
            for part in node.parts:
                ps, pt = self.build(part)
                self.add_eps(s, ps)
                self.add_eps(pt, t)
            return s, t
        if isinstance(node, RStar):
            s, t = self.state(), self.state()
            ps, pt = self.build(node.inner)
            self.add_eps(s, t)
            self.add_eps(s, ps)
            self.add_eps(pt, ps)
            self.add_eps(pt, t)
            return s, t
        raise TypeError(f"unhandled regex node {node!r}")


def _closure(eps, seeds):
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        s = stack.pop()
        for t in eps[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def compile(r: Regex) -> Nfa:
    """Thompson construction, epsilon elimination, trimming and a merge pass
    collapsing states with identical behaviour."""
    b = _Builder()
    start, accept = b.build(r)
    n = len(b.eps)
    closures = [_closure(b.eps, [s]) for s in range(n)]

    trans = [set() for _ in range(n)]
    finals = set()
    for s in range(n):
        for r_ in closures[s]:
            for (letter, t) in b.letters[r_]:
                trans[s].add((letter, t))
        if accept in closures[s]:
            finals.add(s)

    # trim: reachable from start and co-reachable to a final
    reach = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for (_, t) in trans[s]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    rev = [set() for _ in range(n)]
    for s in range(n):
        for (_, t) in trans[s]:
            rev[t].add(s)
    co = set(finals & reach)
    stack = list(co)
    while stack:
        s = stack.pop()
        for t in rev[s]:
            if t in reach and t not in co:
                co.add(t)
                stack.append(t)
    live = co
    if not live:
        # empty language: single initial state, no finals, no moves
        return Nfa(regex_variables(r), 1, frozenset({0}), frozenset(), ((),))

    keep = sorted(live)
    remap = {s: i for i, s in enumerate(keep)}
    m = len(keep)
    mtrans = [frozenset((letter, remap[t]) for (letter, t) in trans[s] if t in live)
              for s in keep]
    mfinals = {remap[s] for s in finals if s in live}
    minit = remap[start]

    # merge states with identical finality and outgoing behaviour
    ids = list(range(m))
    while True:
        sig = {}
        rename = {}
        for s in range(m):
            key = (s in mfinals,
                   frozenset((letter, ids[t]) for (letter, t) in mtrans[s]))
            if key in sig:
                rename[ids[s]] = sig[key]
            else:
                sig[key] = ids[s]
        if not any(rename.get(ids[s], ids[s]) != ids[s] for s in range(m)):
            break
        ids = [rename.get(i, i) for i in ids]

    classes = sorted(set(ids))
    cmap = {c: i for i, c in enumerate(classes)}
    final_ids = {ids[s] for s in mfinals}
    out_trans = [set() for _ in classes]
    for s in range(m):
        for (letter, t) in mtrans[s]:
            out_trans[cmap[ids[s]]].add((letter, cmap[ids[t]]))

    return Nfa(
        regex_variables(r),
        len(classes),
        frozenset({cmap[ids[minit]]}),
        frozenset(cmap[c] for c in final_ids),
        tuple(tuple(sorted(ts, key=lambda it: (it[1], repr(it[0])))) for ts in out_trans),
    )


def pad_extend(a: Nfa) -> Nfa:
    """Add PAD self-loops on final states; idempotent."""
    new = []
    for s in range(a.n_states):
        moves = list(a.transitions[s])
        if s in a.finals and not any(l is PAD and t == s for (l, t) in moves):
            moves.append((PAD, s))
        new.append(tuple(moves))
    return Nfa(a.variables, a.n_states, a.initials, a.finals, tuple(new))


def simulate(a: Nfa, windows, graph) -> bool:
    """Subset simulation over a word of flat windows (oracle-side helper)."""
    current = set(a.initials)
    for w in windows:
        nxt = set()
        for s in current:
            for (letter, t) in a.moves(s):
                if letter is PAD:
                    k = len(w) // 3
                    ok = all(w[3 * i + 1] is SINK for i in range(k))
                else:
                    ok = eval_letter(letter, w, graph, a.variables)
                if ok:
                    nxt.add(t)
        current = nxt
        if not current:
            return False
    return bool(current & a.finals)


# ---------------------------------------------------------------------------
# Direct matching (independent oracle)
# ---------------------------------------------------------------------------

def match_direct(r: Regex, paths: Sequence[Sequence], graph) -> bool:
    """Exact semantics by recursive descent on the synchronization word.

    `paths` are positional for `regex_variables(r)`.  Independent of the
    Thompson pipeline and of the product construction.
    """
    variables = regex_variables(r)
    if variables and len(paths) != len(variables):
        raise ValueError(
            f"regex mentions {len(variables)} paths, got {len(paths)}")
    if paths:
        from .graph import comb
        windows = comb(paths)
    else:
        windows = ()
    index = _var_index(variables)
    memo: dict = {}

    def ends(node: Regex, start: int) -> frozenset:
        key = (id(node), start)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, RLetter):
            ok = start < len(windows) and eval_letter(
                node, windows[start], graph, variables)
            out = frozenset({start + 1}) if ok else frozenset()
        elif isinstance(node, RConcat):
            positions = {start}
            for part in node.parts:
                positions = set().union(*(ends(part, p) for p in positions)) \
                    if positions else set()
            out = frozenset(positions)
        elif isinstance(node, RAlt):
            out = frozenset().union(*(ends(part, start) for part in node.parts))
        else:  # RStar
            closure = {start}
            frontier = [start]
            while frontier:
                p = frontier.pop()
                for q in ends(node.inner, p):
                    if q not in closure:
                        closure.add(q)
                        frontier.append(q)
            out = frozenset(closure)
        memo[key] = out
        return out

    return len(windows) in ends(r, 0)
