"""Translations into the engine's query language and reference simulators.

Three source formalisms are supported: edge-alphabet conjunctive queries
with regular relations over path tuples, the same with linear constraints
on letter counts, and register automata over data paths.  Each translator
targets queries over the corresponding standard embedding; the direct
simulators here are the differential-testing reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count, product as iproduct
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, DnfLimitExceeded, GraphFormatError
from .graph import (
    ECRPQ_EDGE,
    ECRPQ_EOP,
    ECRPQ_SAME,
    DATA_EDGE,
    DATA_VALUE,
    letter_labelling_name,
)
from .model import (
    ArithConstraint,
    Atom,
    BoundConst,
    Compare,
    NCConst,
    NCLabel,
    PathConstraint,
    PosRef,
    Query,
    RAlt,
    RConcat,
    RLetter,
    RStar,
    Regex,
    Top,
)

BLANK = "_"  # the padding symbol in relation letters


# ---------------------------------------------------------------------------
# Source formalisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TupleRegex:
    """Regular expression over letters that are tuples of symbols."""
    kind: str  # "letter" | "concat" | "alt" | "star"
    letter: Optional[Tuple[str, ...]] = None
    parts: Tuple["TupleRegex", ...] = ()

    @staticmethod
    def lit(*symbols: str) -> "TupleRegex":
        return TupleRegex("letter", tuple(symbols))

    @staticmethod
    def concat(*parts) -> "TupleRegex":
        return TupleRegex("concat", None, tuple(parts))

    @staticmethod
    def alt(*parts) -> "TupleRegex":
        return TupleRegex("alt", None, tuple(parts))

    @staticmethod
    def star(inner) -> "TupleRegex":
        return TupleRegex("star", None, (inner,))


@dataclass(frozen=True)
class RelationConstraint:
    regex: TupleRegex
    paths: Tuple[str, ...]


@dataclass(frozen=True)
class EcrpqQuery:
    alphabet: Tuple[str, ...]
    select_nodes: Tuple[str, ...]
    select_paths: Tuple[str, ...]
    path_constraints: Tuple[Tuple[str, str, str], ...]  # (x, pi, y)
    relations: Tuple[RelationConstraint, ...]


@dataclass(frozen=True)
class LinearConstraintBlock:
    """A @ letter-count vector <= b over |alphabet| * n_paths columns."""
    matrix: Tuple[Tuple[int, ...], ...]
    bounds: Tuple[int, ...]
    paths: Tuple[str, ...]
    alphabet: Tuple[str, ...]


@dataclass(frozen=True)
class Rdpa:
    """Register automaton over data paths: word states consume letters, data
    states consume values under register conditions and updates."""
    word_states: FrozenSet[str]
    data_states: FrozenSet[str]
    initial: str
    finals: FrozenSet[str]
    word_transitions: Tuple[Tuple[str, str, str], ...]  # (q, letter, q')
    # (q, condition, update register set, q')
    data_transitions: Tuple[Tuple[str, "Condition", FrozenSet[int], str], ...]
    registers: int


@dataclass(frozen=True)
class Condition:
    """Boolean combination over register/constant (dis)equalities."""
    kind: str  # "true" | "false" | "reg" | "const" | "not" | "and" | "or"
    register: int = 0
    op: str = "="          # "=" | "!="
    value: int = 0
    parts: Tuple["Condition", ...] = ()

    def holds(self, d: int, regs: Tuple) -> bool:
        if self.kind == "true":
            return True
        if self.kind == "false":
            return False
        if self.kind == "reg":
            stored = regs[self.register - 1]
            same = stored is not None and stored == d
            return same if self.op == "=" else not same
        if self.kind == "const":
            return (d == self.value) if self.op == "=" else (d != self.value)
        if self.kind == "not":
            return not self.parts[0].holds(d, regs)
        if self.kind == "and":
            return all(p.holds(d, regs) for p in self.parts)
        return any(p.holds(d, regs) for p in self.parts)


@dataclass(frozen=True)
class IpaTransition:
    source: str
    constraint: Regex
    target: str


@dataclass(frozen=True)
class Ipa:
    states: Tuple[str, ...]
    initial: str
    final: str
    transitions: Tuple[IpaTransition, ...]
    registers: int


# ---------------------------------------------------------------------------
# Direct simulators (reference semantics)
# ---------------------------------------------------------------------------

def tuple_regex_matches(r: TupleRegex, word: Sequence[Tuple[str, ...]]) -> bool:
    memo: dict = {}

    def ends(node: TupleRegex, start: int) -> frozenset:
        key = (id(node), start)
        if key in memo:
            return memo[key]
        if node.kind == "letter":
            out = frozenset({start + 1}) \
                if start < len(word) and word[start] == node.letter else frozenset()
        elif node.kind == "concat":
            positions = {start}
            for part in node.parts:
                positions = set().union(*(ends(part, p) for p in positions)) \
                    if positions else set()
            out = frozenset(positions)
        elif node.kind == "alt":
            out = frozenset().union(*(ends(part, start) for part in node.parts))
        else:
            closure = {start}
            frontier = [start]
            while frontier:
                p = frontier.pop()
                for q in ends(node.parts[0], p):
                    if q not in closure:
                        closure.add(q)
                        frontier.append(q)
            out = frozenset(closure)
        memo[key] = out
        return out

    return len(word) in ends(r, 0)


def word_comb(words: Sequence[Sequence[str]]) -> List[Tuple[str, ...]]:
    """Positionwise synchronization of label words, padded with the blank."""
    length = max((len(w) for w in words), default=0)
    return [tuple(w[j] if j < len(w) else BLANK for w in words)
            for j in range(length)]


@dataclass(frozen=True)
class EcrpqGraph:
    nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, str], ...]
    alphabet: Tuple[str, ...]


def ecrpq_paths(g: EcrpqGraph, max_edges: int):
    """All interleaved paths with at most `max_edges` edges."""
    adj: Dict[str, List[Tuple[str, str]]] = {}
    for (u, a, w) in g.edges:
        adj.setdefault(u, []).append((a, w))
    out = [([v], []) for v in g.nodes]
    frontier = list(out)
    for _ in range(max_edges):
        nxt = []
        for nodes, letters in frontier:
            for (a, w) in adj.get(nodes[-1], ()):
                item = (nodes + [w], letters + [a])
                nxt.append(item)
        out.extend(nxt)
        frontier = nxt
    return out


def ecrpq_holds(q: EcrpqQuery, g: EcrpqGraph, nodes: Tuple[str, ...],
                paths, max_edges: int = 4) -> bool:
    """Brute-force reference semantics; quantified variables enumerated up
    to `max_edges` edges per path."""
    node_vars = list(dict.fromkeys(
        list(q.select_nodes)
        + [x for (x, _, _) in q.path_constraints]
        + [y for (_, _, y) in q.path_constraints]))
    path_vars = list(dict.fromkeys(
        list(q.select_paths)
        + [p for (_, p, _) in q.path_constraints]
        + [p for rel in q.relations for p in rel.paths]))
    env_nodes = dict(zip(q.select_nodes, nodes))
    env_paths = dict(zip(q.select_paths, paths))
    free_nodes = [v for v in node_vars if v not in env_nodes]
    free_paths = [p for p in path_vars if p not in env_paths]
    all_paths = ecrpq_paths(g, max_edges)

    def check(env_n, env_p) -> bool:
        for (x, p, y) in q.path_constraints:
            pnodes, _ = env_p[p]
            if pnodes[0] != env_n[x] or pnodes[-1] != env_n[y]:
                return False
        for rel in q.relations:
            words = [env_p[p][1] for p in rel.paths]
            if not tuple_regex_matches(rel.regex, word_comb(words)):
                return False
        return True

    for combo_n in iproduct(g.nodes, repeat=len(free_nodes)):
        en = dict(env_nodes)
        en.update(zip(free_nodes, combo_n))
        for combo_p in iproduct(all_paths, repeat=len(free_paths)):
            ep = dict(env_paths)
            ep.update(zip(free_paths, combo_p))
            if check(en, ep):
                return True
    return False


def run_rdpa(a: Rdpa, data_path: Sequence) -> bool:
    """Direct simulation on an alternating value/letter sequence."""
    if len(data_path) % 2 == 0:
        raise GraphFormatError("data path must alternate value, letter, value")
    states = {(a.initial, tuple([None] * a.registers))}
    for i, item in enumerate(data_path):
        nxt = set()
        if i % 2 == 0:  # data position
            for (q, regs) in states:
                for (src, cond, update, dst) in a.data_transitions:
                    if src == q and cond.holds(item, regs):
                        new = tuple(item if (r + 1) in update else regs[r]
                                    for r in range(a.registers))
                        nxt.add((dst, new))
        else:  # word position
            for (q, regs) in states:
                for (src, letter, dst) in a.word_transitions:
                    if src == q and letter == item:
                        nxt.add((dst, regs))
        states = nxt
        if not states:
            return False
    return any(q in a.finals for (q, _) in states)


def run_ipa(a: Ipa, path: Sequence, graph, registers: Optional[int] = None) -> bool:
    """Acceptance by splitting the path into transition segments.

    Register paths (quantified, same length as the input) carry stored
    nodes; all but the last segment are checked with a trailing always-true
    letter over a one-position overlap, so letters may look one step ahead
    across segment borders.  Register nodes are enumerated per segment, with
    the shared border node carried in the search state.
    """
    from .model import regex_variables
    from .nfa import match_direct

    k = a.registers if registers is None else registers
    path = tuple(path)
    n = len(path)
    nodes = list(graph.real_nodes)
    by_source: Dict[str, List[IpaTransition]] = {}
    lengths: Dict[int, Tuple[int, Optional[int]]] = {}
    for tr in a.transitions:
        by_source.setdefault(tr.source, []).append(tr)
        lengths[id(tr)] = _regex_length_bounds(tr.constraint)

    FREE = None  # border register nodes not pinned yet (before any segment)
    seen = set()
    stack = [(a.initial, 0, FREE)]
    while stack:
        state, pos, pinned = stack.pop()
        if state == a.final and pos == n:
            return True
        if (state, pos, pinned) in seen:
            continue
        seen.add((state, pos, pinned))
        for tr in by_source.get(state, ()):
            lo_len, hi_len = lengths[id(tr)]
            for end in range(pos, n + 1):
                last = tr.target == a.final and end == n
                body_len = (end - pos) if last else (end - pos + 1) - 1
                if body_len < lo_len or (hi_len is not None and body_len > hi_len):
                    continue
                if last:
                    regex, hi = tr.constraint, end
                else:
                    if end >= n:
                        continue
                    regex = RConcat((tr.constraint, RLetter((Top(),))))
                    hi = end + 1
                span = hi - pos  # register positions pos+1 .. hi
                variables = regex_variables(regex)
                if any(not v.startswith("pi") or not v[2:].isdigit()
                       or int(v[2:]) > k for v in variables):
                    continue
                p0_slice = path[pos:hi]
                # fill each register's span; the first node is pinned
                fill_pool = []
                for i in range(1, k + 1):
                    if span == 0:
                        fill_pool.append([()])
                    elif pinned is FREE:
                        fill_pool.append([tuple(c) for c in
                                          iproduct(nodes, repeat=span)])
                    else:
                        fill_pool.append([
                            (pinned[i - 1],) + tuple(c)
                            for c in iproduct(nodes, repeat=span - 1)])
                for fills in iproduct(*fill_pool) if k else [()]:
                    slices = []
                    ok = True
                    for v in variables:
                        idx = int(v[2:])
                        slices.append(p0_slice if idx == 0 else fills[idx - 1])
                    if not match_direct(regex, tuple(slices), graph):
                        continue
                    if last:
                        nxt_pinned = ()
                    elif k:
                        nxt_pinned = tuple(f[-1] for f in fills)
                    else:
                        nxt_pinned = ()
                    stack.append((tr.target, end, nxt_pinned))
    return False


# ---------------------------------------------------------------------------
# ECRPQ translation
# ---------------------------------------------------------------------------

def _tag(letter: str) -> str:
    return letter_labelling_name(letter) if letter != BLANK else ECRPQ_EOP


def _tuple_letter_to_nc(letter: Tuple[str, ...], paths: Tuple[str, ...]) -> RLetter:
    return RLetter(tuple(
        Compare(NCLabel(_tag(sym), (PosRef(p, 0),)), "=", NCConst(1))
        for sym, p in zip(letter, paths)))


NEVER_LETTER = RLetter((Compare(NCConst(0), "=", NCConst(1)),))


def _tuple_regex_to_regex(r: TupleRegex, paths: Tuple[str, ...]) -> Regex:
    if r.kind == "letter":
        if len(r.letter) != len(paths):
            raise DimensionMismatch(
                f"letter width {len(r.letter)} vs {len(paths)} paths")
        return _tuple_letter_to_nc(r.letter, paths)
    if r.kind == "concat":
        return RConcat(tuple(_tuple_regex_to_regex(p, paths) for p in r.parts))
    if r.kind == "alt":
        if not r.parts:  # the empty relation: no words at all
            return NEVER_LETTER
        return RAlt(tuple(_tuple_regex_to_regex(p, paths) for p in r.parts))
    return RStar(_tuple_regex_to_regex(r.parts[0], paths))


def ecrpq_to_pr(q: EcrpqQuery) -> Query:
    """Queries over the node-and-letter embedding.

    Node variables are canonicalized to end-tagged embedded nodes; each path
    constraint starts from a fresh letter-tagged alias tied to its source by
    the same-node labelling; relation letters become per-path tag tests with
    one trailing all-ended letter (embedded paths run one node longer than
    their label words).
    """
    fresh = count(1)
    node_vars = list(dict.fromkeys(
        list(q.select_nodes)
        + [x for (x, _, _) in q.path_constraints]
        + [y for (_, _, y) in q.path_constraints]))
    pcs = []
    regs: List[Regex] = []
    for x in node_vars:
        regs.append(RLetter((
            Compare(NCLabel(ECRPQ_EOP, (PosRef(x, 0),)), "=", NCConst(1)),)))
    for (x, p, y) in q.path_constraints:
        alias = f"_src{next(fresh)}"
        pcs.append(PathConstraint(alias, p, y, ECRPQ_EDGE))
        regs.append(RLetter((
            Compare(NCLabel(ECRPQ_SAME, (PosRef(x, 0), PosRef(alias, 0))),
                    "=", NCConst(1)),)))
    for rel in q.relations:
        body = _tuple_regex_to_regex(rel.regex, rel.paths)
        tail = RLetter(tuple(
            Compare(NCLabel(ECRPQ_EOP, (PosRef(p, 0),)), "=", NCConst(1))
            for p in rel.paths))
        regs.append(RConcat((body, tail)))
    return Query(
        select_nodes=q.select_nodes,
        select_paths=q.select_paths,
        path_constraints=tuple(pcs),
        regular_constraints=tuple(regs),
    )


def lc_to_arith(lc: LinearConstraintBlock) -> Tuple[ArithConstraint, ...]:
    """One conjunct per matrix row; letter counts are per-path sums of the
    letter-tag labellings on the embedding."""
    width = len(lc.alphabet) * len(lc.paths)
    out = []
    if len(lc.matrix) != len(lc.bounds):
        raise DimensionMismatch("matrix rows and bounds disagree")
    for row, b in zip(lc.matrix, lc.bounds):
        if len(row) != width:
            raise DimensionMismatch(
                f"row width {len(row)}, expected {width}")
        terms = []
        for i, p in enumerate(lc.paths):
            for j, letter in enumerate(lc.alphabet):
                coef = row[i * len(lc.alphabet) + j]
                if coef:
                    terms.append(
                        (coef, Atom(letter_labelling_name(letter), (p,))))
        if not terms:
            # all-zero row: 0 <= b, honoured or refuted by a constant atom
            terms.append((0, Atom(ECRPQ_EOP, (lc.paths[0],))))
        out.append(ArithConstraint(tuple(terms), BoundConst(b)))
    return tuple(out)


def ecrpq_lc_to_pra(q: EcrpqQuery, lc: Optional[LinearConstraintBlock]) -> Query:
    base = ecrpq_to_pr(q)
    if lc is None:
        return base
    return Query(base.ontologies, base.select_nodes, base.select_paths,
                 base.path_constraints, base.regular_constraints,
                 base.arithmetical_constraints + lc_to_arith(lc))


# ---------------------------------------------------------------------------
# RDPA -> iPA -> query
# ---------------------------------------------------------------------------

def _nnf(c: Condition, negate: bool = False) -> Condition:
    if c.kind == "not":
        return _nnf(c.parts[0], not negate)
    if c.kind in ("and", "or"):
        kind = c.kind if not negate else ("or" if c.kind == "and" else "and")
        return Condition(kind, parts=tuple(_nnf(p, negate) for p in c.parts))
    if c.kind in ("true", "false"):
        if negate:
            return Condition("false" if c.kind == "true" else "true")
        return c
    if negate:
        return Condition(c.kind, c.register,
                         "!=" if c.op == "=" else "=", c.value)
    return c


def _dnf(c: Condition, limit: int) -> List[List[Condition]]:
    c = _nnf(c)

    def go(node: Condition) -> List[List[Condition]]:
        if node.kind == "true":
            return [[]]
        if node.kind == "false":
            return []
        if node.kind in ("reg", "const"):
            return [[node]]
        if node.kind == "or":
            out = []
            for p in node.parts:
                out.extend(go(p))
                if len(out) > limit:
                    raise DnfLimitExceeded(
                        f"condition normal form exceeds {limit} clauses")
            return out
        # and: distribute
        out = [[]]
        for p in node.parts:
            branches = go(p)
            out = [a + b for a in out for b in branches]
            if len(out) > limit:
                raise DnfLimitExceeded(
                    f"condition normal form exceeds {limit} clauses")
        return out

    return go(c)


def _literal_to_nc(lit: Condition, assigned: FrozenSet[int]):
    """A condition literal as a node constraint over the register paths.

    Registers hold node values through the data labelling; testing an
    unassigned register is resolved statically (equality false, disequality
    true), which mirrors the blank initial register value.
    """
    if lit.kind == "const":
        return Compare(NCConst(lit.value), lit.op,
                       NCLabel(DATA_VALUE, (PosRef("pi0", 0),)))
    if lit.register not in assigned:
        return True if lit.op == "!=" else False
    return Compare(NCLabel(DATA_VALUE, (PosRef(f"pi{lit.register}", 0),)),
                   lit.op, NCLabel(DATA_VALUE, (PosRef("pi0", 0),)))


def _copy_conjuncts(k: int, update: FrozenSet[int]) -> List[Compare]:
    out = []
    for i in range(1, k + 1):
        src = PosRef("pi0", 0) if i in update else PosRef(f"pi{i}", 0)
        out.append(Compare(NCLabel(DATA_VALUE, (PosRef(f"pi{i}", 1),)),
                           "=", NCLabel(DATA_VALUE, (src,))))
    return out


def rdpa_to_ipa(a: Rdpa, dnf_limit: int = 64) -> Ipa:
    """States are (automaton state, assigned register set); word transitions
    keep registers, data transitions test a condition clause and update."""
    new_initial = ("I", frozenset())
    new_final = ("F", frozenset())

    def st(q, assigned) -> str:
        return f"{q}#{','.join(map(str, sorted(assigned)))}"

    states = {st(*new_initial), st(*new_final)}
    transitions: List[IpaTransition] = []
    k = a.registers

    # assigned-set reachability drives which expanded states exist
    frontier = [(a.initial, frozenset())]
    seen = {(a.initial, frozenset())}
    pairs = []
    while frontier:
        q, assigned = frontier.pop()
        states.add(st(q, assigned))
        if q in a.data_states:
            for (src, cond, update, dst) in a.data_transitions:
                if src != q:
                    continue
                nxt = (dst, assigned | update)
                pairs.append(((q, assigned), cond, update, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        else:
            for (src, letter, dst) in a.word_transitions:
                if src != q:
                    continue
                nxt = (dst, assigned)
                pairs.append(((q, assigned), letter, None, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    for (src, label, update, dst) in pairs:
        q, assigned = src
        if update is None:  # word transition
            conj = [
                Compare(NCLabel(letter_labelling_name(label),
                                (PosRef("pi0", 0),)), "=", NCConst(1)),
                Compare(NCLabel(DATA_EDGE, (PosRef("pi0", 0), PosRef("pi0", 1))),
                        "=", NCConst(1)),
            ]
            for i in range(1, k + 1):
                conj.append(Compare(
                    NCLabel(DATA_VALUE, (PosRef(f"pi{i}", 1),)), "=",
                    NCLabel(DATA_VALUE, (PosRef(f"pi{i}", 0),))))
            transitions.append(IpaTransition(st(*src), RLetter(tuple(conj)),
                                             st(*dst)))
            continue
        clauses = []
        for clause in _dnf(label, dnf_limit):
            conj = []
            ok = True
            for lit in clause:
                res = _literal_to_nc(lit, src[1])
                if res is True:
                    continue
                if res is False:
                    ok = False
                    break
                conj.append(res)
            if ok:
                clauses.append(conj)
        if not clauses:
            continue

        def assemble(conjs):
            branches = [RLetter(tuple(c) if c else (Top(),)) for c in conjs]
            return branches[0] if len(branches) == 1 else RAlt(tuple(branches))

        # continue version: step the input path and update register paths
        cont = [c + [Compare(NCLabel(DATA_EDGE,
                                     (PosRef("pi0", 0), PosRef("pi0", 1))),
                             "=", NCConst(1))] + _copy_conjuncts(k, update)
                for c in clauses]
        transitions.append(IpaTransition(st(*src), assemble(cont), st(*dst)))
        if dst[0] in a.finals:
            # accept version: the last data value, nothing to look ahead to
            transitions.append(IpaTransition(st(*src), assemble(clauses),
                                             st(*new_final)))

    # fresh initial duplicating the original initial's outgoing transitions
    init_name = st(a.initial, frozenset())
    extra = [IpaTransition(st(*new_initial), tr.constraint, tr.target)
             for tr in transitions if tr.source == init_name]
    transitions.extend(extra)
    return Ipa(tuple(sorted(states)), st(*new_initial), st(*new_final),
               tuple(transitions), k)


def _regex_length_bounds(r: Regex) -> Tuple[int, Optional[int]]:
    """(shortest, longest or None for unbounded) match length of a regex."""
    if isinstance(r, RLetter):
        return 1, 1
    if isinstance(r, RStar):
        lo, hi = _regex_length_bounds(r.inner)
        return 0, None if hi != 0 else 0
    if isinstance(r, RConcat):
        lo = hi = 0
        for part in r.parts:
            plo, phi = _regex_length_bounds(part)
            lo += plo
            hi = None if hi is None or phi is None else hi + phi
        return lo, hi
    los, his = [], []
    for part in r.parts:
        plo, phi = _regex_length_bounds(part)
        los.append(plo)
        his.append(phi)
    return min(los), None if any(h is None for h in his) else max(his)


def ipa_to_regex(a: Ipa) -> Regex:
    """Standard state removal.

    Segments compose by plain concatenation: in whole-path matching every
    letter reads its true next position, which is exactly what the sliced
    acceptance rule emulates with its one-position overlap re-read.  (The
    translated letters never look backwards, so no border information is
    lost.)"""
    # transition map with alternation merging
    trans: Dict[Tuple[str, str], Regex] = {}
    for tr in a.transitions:
        key = (tr.source, tr.target)
        trans[key] = tr.constraint if key not in trans \
            else RAlt((trans[key], tr.constraint))

    states = [s for s in a.states if s not in (a.initial, a.final)]
    while states:
        # lowest degree first keeps the expression small
        def degree(s):
            return sum(1 for (u, v) in trans if u == s or v == s)
        states.sort(key=lambda s: (degree(s), s))
        s = states.pop(0)
        loop = trans.pop((s, s), None)
        ins = [(u, r) for (u, v), r in list(trans.items()) if v == s and u != s]
        outs = [(v, r) for (u, v), r in list(trans.items()) if u == s and v != s]
        for (u, _) in ins:
            trans.pop((u, s))
        for (v, _) in outs:
            trans.pop((s, v))
        for (u, rin) in ins:
            for (v, rout) in outs:
                mid = RConcat((rin, rout)) if loop is None else \
                    RConcat((rin, RStar(loop), rout))
                key = (u, v)
                trans[key] = mid if key not in trans else RAlt((trans[key], mid))
    final = trans.get((a.initial, a.final))
    if final is None:
        # empty language: an unmatchable letter
        final = RLetter((Compare(NCConst(0), "=", NCConst(1)),))
    return final


def rdpa_to_query(a: Rdpa, dnf_limit: int = 64) -> Query:
    """The full pipeline: a query over the data-graph embedding selecting
    the endpoints of an accepted path."""
    regex = ipa_to_regex(rdpa_to_ipa(a, dnf_limit))
    return Query(
        select_nodes=("x", "y"),
        path_constraints=(PathConstraint("x", "pi0", "y", DATA_EDGE),),
        regular_constraints=(regex,),
    )


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------

def parse_rdpa(text: str) -> Rdpa:
    """Line format::

        registers 1
        word W1 W2
        data D0 D1
        initial D0
        final W2
        wtrans W1 a D1
        dtrans D0 true {1} W1
        dtrans D1 and(x1=, z!=3) {} W2
    """
    registers = 0
    word: List[str] = []
    data: List[str] = []
    initial = None
    finals: List[str] = []
    wtrans = []
    dtrans = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        try:
            if kw == "registers":
                registers = int(parts[1])
            elif kw == "word":
                word.extend(parts[1:])
            elif kw == "data":
                data.extend(parts[1:])
            elif kw == "initial":
                initial = parts[1]
            elif kw == "final":
                finals.extend(parts[1:])
            elif kw == "wtrans":
                wtrans.append((parts[1], parts[2], parts[3]))
            elif kw == "dtrans":
                m = re.match(r"dtrans\s+(\S+)\s+(.*)\s+\{([^}]*)\}\s+(\S+)$",
                             line)
                if not m:
                    raise GraphFormatError(f"line {ln}: bad dtrans")
                cond = parse_condition(m.group(2).strip())
                update = frozenset(int(x) for x in m.group(3).split(",")
                                   if x.strip())
                dtrans.append((m.group(1), cond, update, m.group(4)))
            else:
                raise GraphFormatError(f"line {ln}: unknown keyword {kw!r}")
        except (IndexError, ValueError) as exc:
            raise GraphFormatError(f"line {ln}: {exc}") from None
    if set(word) & set(data):
        raise GraphFormatError("word and data states must be disjoint")
    if initial is None or initial not in data:
        raise GraphFormatError("initial state must be a declared data state")
    for f in finals:
        if f not in word:
            raise GraphFormatError("final states must be word states")
    return Rdpa(frozenset(word), frozenset(data), initial, frozenset(finals),
                tuple(wtrans), tuple(dtrans), registers)


def parse_condition(text: str) -> Condition:
    text = text.strip()

    def parse(expr: str) -> Condition:
        expr = expr.strip()
        if expr == "true":
            return Condition("true")
        if expr == "false":
            return Condition("false")
        for kw, kind in (("and", "and"), ("or", "or"), ("not", "not")):
            if expr.startswith(kw + "(") and expr.endswith(")"):
                inner = expr[len(kw) + 1:-1]
                parts = _split_top(inner)
                return Condition(kind, parts=tuple(parse(p) for p in parts))
        m = re.fullmatch(r"x(\d+)(!?=)", expr)
        if m:
            return Condition("reg", int(m.group(1)), m.group(2).replace("!=", "!="))
        m = re.fullmatch(r"z(!?=)(-?\d+)", expr)
        if m:
            return Condition("const", 0, m.group(1), int(m.group(2)))
        raise GraphFormatError(f"bad condition {expr!r}")

    return parse(text)


def _split_top(s: str) -> List[str]:
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def parse_ecrpq(text: str):
    """Query file::

        alphabet a b
        select nodes x y
        select paths pi
        path x pi y
        relation pi : (a,?) ...    # regex over tuple letters

    Relation regexes use letters like `(a)` or `(a,_)`, `+` for alternation,
    `*` for star, juxtaposition for concatenation.  Returns (EcrpqQuery,
    LinearConstraintBlock | None); `linear` lines add count constraints::

        linear pi : a<=2, b-a<=0
    """
    alphabet: List[str] = []
    sel_nodes: List[str] = []
    sel_paths: List[str] = []
    pcs = []
    relations = []
    linear_rows: List[Tuple[Tuple[str, ...], str]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "alphabet":
            alphabet.extend(parts[1:])
        elif kw == "select" and parts[1] == "nodes":
            sel_nodes.extend(parts[2:])
        elif kw == "select" and parts[1] == "paths":
            sel_paths.extend(parts[2:])
        elif kw == "path":
            pcs.append((parts[1], parts[2], parts[3]))
        elif kw == "relation":
            m = re.match(r"relation\s+([\w\s,]+?)\s*:\s*(.*)$", line)
            if not m:
                raise GraphFormatError(f"line {ln}: bad relation")
            paths = tuple(p.strip() for p in m.group(1).replace(",", " ").split())
            regex = _parse_tuple_regex(m.group(2), len(paths), ln)
            relations.append(RelationConstraint(regex, paths))
        elif kw == "linear":
            m = re.match(r"linear\s+([\w\s,]+?)\s*:\s*(.*)$", line)
            if not m:
                raise GraphFormatError(f"line {ln}: bad linear constraint")
            paths = tuple(p.strip() for p in m.group(1).replace(",", " ").split())
            linear_rows.append((paths, m.group(2)))
        else:
            raise GraphFormatError(f"line {ln}: unknown keyword {kw!r}")
    q = EcrpqQuery(tuple(alphabet), tuple(sel_nodes), tuple(sel_paths),
                   tuple(pcs), tuple(relations))
    lc = _build_linear(linear_rows, tuple(alphabet)) if linear_rows else None
    return q, lc


def _build_linear(rows, alphabet) -> LinearConstraintBlock:
    paths = rows[0][0]
    matrix = []
    bounds = []
    for declared, spec in rows:
        if declared != paths:
            raise GraphFormatError("linear lines must use one path tuple")
        for item in spec.split(","):
            item = item.strip()
            m = re.fullmatch(r"(.+?)<=(-?\d+)", item.replace(" ", ""))
            if not m:
                raise GraphFormatError(f"bad linear item {item!r}")
            row = [0] * (len(alphabet) * len(paths))
            for term in re.finditer(r"([+-]?)(\d*)\*?([A-Za-z]\w*)(?:@(\w+))?",
                                    m.group(1)):
                sign = -1 if term.group(1) == "-" else 1
                coef = int(term.group(2)) if term.group(2) else 1
                letter = term.group(3)
                pvar = term.group(4) or paths[0]
                if letter not in alphabet or pvar not in paths:
                    raise GraphFormatError(f"bad linear term {term.group(0)!r}")
                col = paths.index(pvar) * len(alphabet) + alphabet.index(letter)
                row[col] += sign * coef
            matrix.append(tuple(row))
            bounds.append(int(m.group(2)))
    return LinearConstraintBlock(tuple(matrix), tuple(bounds), paths, alphabet)


def _parse_tuple_regex(text: str, width: int, ln: int) -> TupleRegex:
    pos = 0

    def error(msg):
        raise GraphFormatError(f"line {ln}: {msg}")

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_alt():
        parts = [parse_concat()]
        skip_ws()
        nonlocal pos
        while pos < len(text) and text[pos] == "+":
            pos += 1
            parts.append(parse_concat())
            skip_ws()
        return parts[0] if len(parts) == 1 else TupleRegex.alt(*parts)

    def parse_concat():
        parts = []
        while True:
            skip_ws()
            if pos >= len(text) or text[pos] in ")+":
                break
            parts.append(parse_star())
        if not parts:
            error("empty expression")
        return parts[0] if len(parts) == 1 else TupleRegex.concat(*parts)

    def parse_star():
        nonlocal pos
        node = parse_primary()
        skip_ws()
        while pos < len(text) and text[pos] == "*":
            pos += 1
            node = TupleRegex.star(node)
            skip_ws()
        return node

    def parse_primary():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            error("unexpected end of regex")
        if text[pos] == "(":
            # either a tuple letter or a group: a letter contains only
            # symbol characters and commas up to the matching paren
            close = text.find(")", pos)
            inner = text[pos + 1:close] if close != -1 else ""
            if close != -1 and re.fullmatch(r"[\w,\s_]*", inner) \
                    and "(" not in inner:
                symbols = tuple(s.strip() for s in inner.split(","))
                if len(symbols) != width:
                    error(f"letter {inner!r} has width {len(symbols)}, "
                          f"expected {width}")
                pos = close + 1
                return TupleRegex.lit(*symbols)
            pos += 1
            node = parse_alt()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                error("unbalanced parentheses")
            pos += 1
            return node
        error(f"unexpected character {text[pos]!r}")

    node = parse_alt()
    skip_ws()
    if pos != len(text):
        error(f"trailing input {text[pos:]!r}")
    return node
