"""Query-to-query transformations: projection, intersection, union,
Cartesian product, complement, and the derived graph-property queries.

All constructions are pure AST rewrites.  Fresh variables and labelling
names use the reserved prefix `_a`; graphs should not label with it.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterable, Tuple

from .errors import HasFreePathVariables, SignatureMismatch, UnknownVariable
from .graph import POS_INF
from .model import (
    ArithConstraint,
    Atom,
    BoundConst,
    BoundLabel,
    Compare,
    NCConst,
    NCLabel,
    OntologyDef,
    PathConstraint,
    PosRef,
    Query,
    RAlt,
    RConcat,
    RLetter,
    RStar,
    TAggregate,
    TApply,
    TConst,
    TIdent,
    TLabel,
    TPathExtremum,
    TSubquery,
    Top,
)


class _Gensym:
    def __init__(self, taken: Iterable[str]):
        self.taken = set(taken)
        self.counter = count(1)

    def fresh(self, hint: str = "v") -> str:
        while True:
            name = f"_a{next(self.counter)}_{hint}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def _query_names(q: Query) -> set:
    """All variable and labelling names appearing anywhere in the query."""
    out = set(q.select_nodes) | set(q.select_paths)
    out |= q.node_vars() | q.path_vars()
    for d in q.ontologies:
        out.add(d.name)
        out |= set(d.params)
        out |= _term_names(d.body)
    for pc in q.path_constraints:
        out.add(pc.edge_labelling)
    for r in q.regular_constraints:
        out |= _regex_names(r)
    for ac in q.arithmetical_constraints:
        for _, atom in ac.terms:
            out.add(atom.labelling)
            out |= set(atom.vars)
        if isinstance(ac.bound, BoundLabel):
            out.add(ac.bound.name)
    return out


def _term_names(t) -> set:
    out: set = set()
    if isinstance(t, TLabel):
        out = {t.name} | set(t.vars)
    elif isinstance(t, TApply):
        for a in t.args:
            out |= _term_names(a)
    elif isinstance(t, TAggregate):
        out = {t.var} | _term_names(t.element) | _term_names(t.filter)
    elif isinstance(t, TSubquery):
        out = _query_names(t.query)
    elif isinstance(t, TPathExtremum):
        out = {t.labelling, t.pathvar} | _query_names(t.query)
    return out


def _regex_names(r) -> set:
    out: set = set()
    if isinstance(r, RLetter):
        for nc in r.conjuncts:
            if isinstance(nc, Compare):
                for v in (nc.lhs, nc.rhs):
                    if isinstance(v, NCLabel):
                        out.add(v.name)
                        out |= {ref.var for ref in v.refs}
                    elif isinstance(v, PosRef):
                        out.add(v.var)
    elif isinstance(r, RStar):
        out = _regex_names(r.inner)
    else:
        for part in r.parts:
            out |= _regex_names(part)
    return out


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------

def _rename_regex(r, vmap: Dict[str, str], lmap: Dict[str, str]):
    if isinstance(r, RLetter):
        return RLetter(tuple(_rename_nc(nc, vmap, lmap) for nc in r.conjuncts))
    if isinstance(r, RStar):
        return RStar(_rename_regex(r.inner, vmap, lmap))
    parts = tuple(_rename_regex(p, vmap, lmap) for p in r.parts)
    return RConcat(parts) if isinstance(r, RConcat) else RAlt(parts)


def _rename_nc(nc, vmap, lmap):
    if isinstance(nc, Top):
        return nc
    return Compare(_rename_ncv(nc.lhs, vmap, lmap), nc.op,
                   _rename_ncv(nc.rhs, vmap, lmap))


def _rename_ncv(v, vmap, lmap):
    if isinstance(v, PosRef):
        return PosRef(vmap.get(v.var, v.var), v.offset)
    if isinstance(v, NCLabel):
        return NCLabel(lmap.get(v.name, v.name),
                       tuple(PosRef(vmap.get(r.var, r.var), r.offset)
                             for r in v.refs))
    return v


def _rename_term(t, lmap: Dict[str, str]):
    """Rename labelling references; variables inside terms are local."""
    if isinstance(t, TLabel):
        return TLabel(lmap.get(t.name, t.name), t.vars)
    if isinstance(t, TApply):
        return TApply(t.fn, tuple(_rename_term(a, lmap) for a in t.args))
    if isinstance(t, TAggregate):
        return TAggregate(t.fn, t.var, _rename_term(t.element, lmap),
                          _rename_term(t.filter, lmap))
    if isinstance(t, TSubquery):
        return TSubquery(_rename_labels(t.query, lmap))
    if isinstance(t, TPathExtremum):
        return TPathExtremum(t.direction, lmap.get(t.labelling, t.labelling),
                             t.pathvar, _rename_labels(t.query, lmap))
    return t


def _rename_labels(q: Query, lmap: Dict[str, str]) -> Query:
    local = {d.name for d in q.ontologies}
    lmap = {k: v for k, v in lmap.items() if k not in local}
    return _rename(q, {}, lmap)


def _rename(q: Query, vmap: Dict[str, str], lmap: Dict[str, str]) -> Query:
    """Rename query-level variables and labelling names, recursively."""

    def rv(v):
        return vmap.get(v, v)

    def rl(n):
        return lmap.get(n, n)

    return Query(
        ontologies=tuple(
            OntologyDef(rl(d.name), d.params, _rename_term(d.body, lmap))
            for d in q.ontologies),
        select_nodes=tuple(rv(v) for v in q.select_nodes),
        select_paths=tuple(rv(v) for v in q.select_paths),
        path_constraints=tuple(
            PathConstraint(rv(pc.source), rv(pc.path), rv(pc.target),
                           rl(pc.edge_labelling))
            for pc in q.path_constraints),
        regular_constraints=tuple(
            _rename_regex(r, vmap, lmap) for r in q.regular_constraints),
        arithmetical_constraints=tuple(
            ArithConstraint(
                tuple((c, Atom(rl(a.labelling), tuple(rv(v) for v in a.vars)))
                      for c, a in ac.terms),
                BoundLabel(rl(ac.bound.name), ac.bound.sign, ac.bound.offset)
                if isinstance(ac.bound, BoundLabel) else ac.bound)
            for ac in q.arithmetical_constraints),
    )


def _freshen(q: Query, gensym: _Gensym, keep_selected: bool = True) -> Query:
    """Rename quantified variables and ontology names to fresh ones; with
    keep_selected=False the selected variables are renamed too."""
    vmap = {}
    for v in list(q.quantified_nodes()) + list(q.quantified_paths()):
        vmap[v] = gensym.fresh(v.strip("_"))
    if not keep_selected:
        for v in list(q.select_nodes) + list(q.select_paths):
            vmap[v] = gensym.fresh(v.strip("_"))
    lmap = {d.name: gensym.fresh(d.name.strip("_")) for d in q.ontologies}
    return _rename(q, vmap, lmap)


# ---------------------------------------------------------------------------
# Closure operations
# ---------------------------------------------------------------------------

def project(q: Query, keep_nodes, keep_paths) -> Query:
    keep_nodes = tuple(keep_nodes)
    keep_paths = tuple(keep_paths)
    for v in keep_nodes:
        if v not in q.select_nodes:
            raise UnknownVariable(f"{v!r} is not a selected node variable")
    for v in keep_paths:
        if v not in q.select_paths:
            raise UnknownVariable(f"{v!r} is not a selected path variable")
    return Query(q.ontologies, keep_nodes, keep_paths, q.path_constraints,
                 q.regular_constraints, q.arithmetical_constraints)


def _merge(q1: Query, q2: Query, select_nodes, select_paths) -> Query:
    return Query(
        ontologies=q1.ontologies + q2.ontologies,
        select_nodes=select_nodes,
        select_paths=select_paths,
        path_constraints=q1.path_constraints + q2.path_constraints,
        regular_constraints=q1.regular_constraints + q2.regular_constraints,
        arithmetical_constraints=(q1.arithmetical_constraints
                                  + q2.arithmetical_constraints),
    )


def intersect(q1: Query, q2: Query) -> Query:
    if q1.select_nodes != q2.select_nodes or q1.select_paths != q2.select_paths:
        raise SignatureMismatch("intersection requires equal signatures")
    gensym = _Gensym(_query_names(q1) | _query_names(q2))
    q2f = _freshen(q2, gensym)
    return _merge(q1, q2f, q1.select_nodes, q1.select_paths)


def cartesian(q1: Query, q2: Query) -> Query:
    gensym = _Gensym(_query_names(q1) | _query_names(q2))
    overlap = (set(q2.select_nodes) | set(q2.select_paths)) & \
        (set(q1.select_nodes) | set(q1.select_paths))
    vmap = {v: gensym.fresh(v.strip("_")) for v in overlap}
    q2r = _rename(q2, vmap, {})
    q2f = _freshen(q2r, gensym)
    return _merge(q1, q2f, q1.select_nodes + q2f.select_nodes,
                  q1.select_paths + q2f.select_paths)


def _boolean_closure(q: Query) -> Query:
    return Query(q.ontologies, (), (), q.path_constraints,
                 q.regular_constraints, q.arithmetical_constraints)


def _guarded_regular(q: Query, guard: str) -> Tuple:
    """R_i becomes R_i + <guard()=0><guard()=0>*: trivially satisfiable by a
    nonempty dummy word exactly when the guard is off (one-or-more, so an
    off guard never sneaks the empty word into the language)."""
    off = RLetter((Compare(NCLabel(guard, ()), "=", NCConst(0)),))
    branch = RConcat((off, RStar(off)))
    return tuple(RAlt((r, branch)) for r in q.regular_constraints)


def _guarded_arith(q: Query, guard: str, gensym: _Gensym):
    """Every bound d becomes max(d, (1 - 2*guard())*inf): the original bound
    when the guard is on, +inf (trivially satisfied) when off."""
    defs = []
    constraints = []
    for ac in q.arithmetical_constraints:
        if isinstance(ac.bound, BoundConst):
            bound_term = TConst(ac.bound.value)
        else:
            bound_term = TApply("add", (
                TApply("mul", (TConst(ac.bound.sign),
                               TLabel(ac.bound.name, ()))),
                TConst(ac.bound.offset)))
        relaxed = TApply("max", (
            bound_term,
            TApply("mul", (
                TApply("sub", (TConst(1),
                               TApply("mul", (TConst(2), TLabel(guard, ()))))),
                TConst(POS_INF)))))
        name = gensym.fresh("bound")
        defs.append(OntologyDef(name, (), relaxed))
        constraints.append(ArithConstraint(ac.terms, BoundLabel(name, 1, 0)))
    return tuple(defs), tuple(constraints)


def union(q1: Query, q2: Query) -> Query:
    """Fresh selected variables are synchronized with one operand's variables
    per position; ontology guards disarm the other operand's constraints."""
    if len(q1.select_nodes) != len(q2.select_nodes) or \
            len(q1.select_paths) != len(q2.select_paths):
        raise SignatureMismatch("union requires matching signatures")
    gensym = _Gensym(_query_names(q1) | _query_names(q2))
    a = _freshen(q1, gensym, keep_selected=False)
    b = _freshen(q2, gensym, keep_selected=False)
    fresh_nodes = tuple(gensym.fresh(v.strip("_")) for v in q1.select_nodes)
    fresh_paths = tuple(gensym.fresh(v.strip("_")) for v in q1.select_paths)

    guard_a = gensym.fresh("on")
    guard_b = gensym.fresh("on")
    guard_defs = (
        OntologyDef(guard_a, (), TSubquery(_boolean_closure(q1))),
        OntologyDef(guard_b, (), TSubquery(_boolean_closure(q2))),
    )

    def eq_branch(guard: str, side: Query) -> RStar:
        conjuncts = [Compare(NCLabel(guard, ()), "=", NCConst(1))]
        for fresh, old in zip(fresh_nodes + fresh_paths,
                              side.select_nodes + side.select_paths):
            conjuncts.append(Compare(PosRef(fresh, 0), "=", PosRef(old, 0)))
        return RStar(RLetter(tuple(conjuncts)))

    bound_defs_a, arith_a = _guarded_arith(a, guard_a, gensym)
    bound_defs_b, arith_b = _guarded_arith(b, guard_b, gensym)
    sync = RAlt((eq_branch(guard_a, a), eq_branch(guard_b, b)))

    return Query(
        ontologies=(a.ontologies + b.ontologies + guard_defs
                    + bound_defs_a + bound_defs_b),
        select_nodes=fresh_nodes,
        select_paths=fresh_paths,
        path_constraints=a.path_constraints + b.path_constraints,
        regular_constraints=(_guarded_regular(a, guard_a)
                             + _guarded_regular(b, guard_b) + (sync,)),
        arithmetical_constraints=arith_a + arith_b,
    )


def complement(q: Query) -> Query:
    """Negation through a truth subquery; only for queries without free
    path variables."""
    if q.select_paths:
        raise HasFreePathVariables(
            "complement is defined only for queries without free path variables")
    gensym = _Gensym(_query_names(q))
    cname = gensym.fresh("not")
    if q.select_nodes:
        cdef = OntologyDef(cname, q.select_nodes, TSubquery(q))
        constraint = ArithConstraint(
            ((1, Atom(cname, q.select_nodes)),), BoundConst(0))
        return Query(ontologies=(cdef,), select_nodes=q.select_nodes,
                     arithmetical_constraints=(constraint,))
    # Boolean case: an atom needs a variable, so ride on a quantified path
    # that can stay empty: One[rho] <= -[q] holds exactly when [q] = 0.
    one = gensym.fresh("one")
    rho = gensym.fresh("rho")
    defs = (
        OntologyDef(one, (gensym.fresh("z"),), TConst(1)),
        OntologyDef(cname, (), TApply("sub", (TConst(0), TSubquery(q)))),
    )
    constraint = ArithConstraint(((1, Atom(one, (rho,))),),
                                 BoundLabel(cname, 1, 0))
    return Query(ontologies=defs, arithmetical_constraints=(constraint,))


# ---------------------------------------------------------------------------
# Derived graph-property queries
# ---------------------------------------------------------------------------

def cycle_query(edge: str = "E") -> Query:
    """Boolean: some path returns to its start after at least one step."""
    top = RLetter((Top(),))
    return Query(
        select_nodes=(), select_paths=(),
        path_constraints=(PathConstraint("x", "pi", "x", edge),),
        regular_constraints=(RConcat((top, top, RStar(top))),),
    )


def dag_query(edge: str = "E") -> Query:
    return complement(cycle_query(edge))


def unique_path_query(edge: str = "E") -> Query:
    """Exactly one path between the selected pair: at least one, and no two
    paths differing at some position."""
    diff = "_a0_diff"
    two = Query(
        ontologies=(OntologyDef(diff, ("a", "b"),
                                TApply("NOT", (TIdent("a", "b"),))),),
        select_nodes=("x", "y"),
        path_constraints=(PathConstraint("x", "pi", "y", edge),
                          PathConstraint("x", "pi2", "y", edge)),
        arithmetical_constraints=(
            ArithConstraint(((-1, Atom(diff, ("pi", "pi2"))),),
                            BoundConst(-1)),),
    )
    exists = Query(select_nodes=("x", "y"),
                   path_constraints=(PathConstraint("x", "pi", "y", edge),))
    return intersect(complement(two), exists)


def hamiltonian_query(node_count: int, edge: str = "E") -> Query:
    """Boolean: a cycle visiting `node_count` pairwise distinct nodes.

    With `node_count` equal to the number of non-sink nodes this decides
    Hamiltonicity.  The size parameter is unavoidable: uniqueness of an
    unboundedly long path is exactly what the language cannot express
    (complementing a free-path query is not available), so the construction
    fixes the node count instead.
    """
    if node_count <= 0:
        return Query(regular_constraints=(
            RLetter((Compare(NCConst(0), "=", NCConst(1)),)),))
    xs = [f"x{i}" for i in range(1, node_count + 1)]
    constraints = []
    for i in range(node_count):
        for j in range(i + 1, node_count):
            constraints.append(RLetter((
                Compare(PosRef(xs[i], 0), "!=", PosRef(xs[j], 0)),)))
    for i in range(node_count):
        nxt = xs[(i + 1) % node_count]
        constraints.append(RLetter((
            Compare(NCLabel(edge, (PosRef(xs[i], 0), PosRef(nxt, 0))),
                    "!=", NCConst(0)),)))
    return Query(regular_constraints=tuple(constraints))
