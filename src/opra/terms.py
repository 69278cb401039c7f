"""Ontology term evaluation and graph extension with auxiliary labellings.

Auxiliary labellings are defined by terms; an extended graph answers lookups
for them on demand, with memoization.  Truth subqueries and path extrema
delegate to the query engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from .errors import UnknownLabelling
from .graph import (
    NEG_INF,
    POS_INF,
    SINK,
    ExtInt,
    ext_add,
    ext_cmp,
    ext_max,
    ext_min,
    ext_mul,
    ext_sum,
)
from .model import (
    BoundConst,
    OntologyDef,
    TAggregate,
    TApply,
    TConst,
    TIdent,
    TLabel,
    TPathExtremum,
    TSubquery,
    Term,
    term_label_refs,
)

# ---------------------------------------------------------------------------
# Fundamental functions
# ---------------------------------------------------------------------------

def _truthy(v: ExtInt) -> bool:
    return ext_cmp(v, 0) != 0


def _bool(b) -> int:
    return 1 if b else 0


def _agg_sum(values) -> ExtInt:
    return ext_sum(values)


def _agg_count(values) -> ExtInt:
    return len(values)


def _agg_min(values) -> ExtInt:
    out: ExtInt = POS_INF
    for v in values:
        out = ext_min(out, v)
    return out


def _agg_max(values) -> ExtInt:
    out: ExtInt = NEG_INF
    for v in values:
        out = ext_max(out, v)
    return out


AGGREGATE_FUNCTIONS: Dict[str, Callable] = {
    "Sum": _agg_sum,
    "Count": _agg_count,
    "Min": _agg_min,
    "Max": _agg_max,
}

# name -> (arity or None for variadic, implementation)
SCALAR_FUNCTIONS: Dict[str, Tuple[Optional[int], Callable]] = {
    "add": (2, ext_add),
    "sub": (2, lambda a, b: ext_add(a, ext_mul(-1, b))),
    "mul": (2, ext_mul),
    "le": (2, lambda a, b: _bool(ext_cmp(a, b) <= 0)),
    "lt": (2, lambda a, b: _bool(ext_cmp(a, b) < 0)),
    "ge": (2, lambda a, b: _bool(ext_cmp(a, b) >= 0)),
    "gt": (2, lambda a, b: _bool(ext_cmp(a, b) > 0)),
    "eq": (2, lambda a, b: _bool(ext_cmp(a, b) == 0)),
    "ne": (2, lambda a, b: _bool(ext_cmp(a, b) != 0)),
    "AND": (None, lambda *xs: _bool(all(_truthy(x) for x in xs))),
    "OR": (None, lambda *xs: _bool(any(_truthy(x) for x in xs))),
    "NOT": (1, lambda a: _bool(not _truthy(a))),
    "IMPLIES": (2, lambda a, b: _bool(not _truthy(a) or _truthy(b))),
    "min": (2, ext_min),
    "max": (2, ext_max),
}

KNOWN_FUNCTIONS = set(SCALAR_FUNCTIONS) | set(AGGREGATE_FUNCTIONS)


def register_function(name: str, fn: Callable, arity: Optional[int] = None,
                      aggregate: bool = False) -> None:
    """Extend the registry.  Aggregates must be permutation invariant."""
    if aggregate:
        AGGREGATE_FUNCTIONS[name] = fn
    else:
        SCALAR_FUNCTIONS[name] = (arity, fn)
    KNOWN_FUNCTIONS.add(name)


def function_arity(name: str) -> Optional[int]:
    if name in AGGREGATE_FUNCTIONS:
        return 1
    spec = SCALAR_FUNCTIONS.get(name)
    return spec[0] if spec else None


def eval_aggregate(fn: str, values) -> ExtInt:
    """Apply an aggregate to a multiset of extended integers."""
    try:
        impl = AGGREGATE_FUNCTIONS[fn]
    except KeyError:
        raise UnknownLabelling(f"unknown aggregate {fn!r}") from None
    return impl(list(values))


# ---------------------------------------------------------------------------
# Extended graphs
# ---------------------------------------------------------------------------

class ExtendedGraph:
    """A graph plus ordered auxiliary labelling definitions.

    There is one per evaluation level.  Each definition may use the graph
    below and the definitions before it; the constructor rejects a reference
    to the definition itself or to a later one, so lookups need no scoping.
    Lookups of auxiliary names evaluate the defining term on demand and
    memoize the result (write-once per key).  `depth` counts the extensions
    down to the plain graph, so it is the nesting depth of the evaluation
    that made this one.
    """

    def __init__(self, base, defs: Iterable[OntologyDef], engine=None):
        self.base = base
        self.depth = base.depth + 1
        self.defs: Tuple[OntologyDef, ...] = tuple(defs)
        self._by_name = {d.name: d for d in self.defs}
        self._memo: Dict[Tuple[str, Tuple], ExtInt] = {}
        if engine is None:
            engine = getattr(base, "engine", None)
        if engine is None:
            from . import engine as engine_mod
            engine = engine_mod.DEFAULT_ENGINE
        self.engine = engine
        order = {d.name: i for i, d in enumerate(self.defs)}
        for i, d in enumerate(self.defs):
            for name in term_label_refs(d.body):
                if order.get(name, -1) >= i:
                    raise UnknownLabelling(
                        f"labelling {name!r} defined later in the ontology")

    # -- graph protocol -------------------------------------------------------

    @property
    def nodes(self):
        return self.base.nodes

    @property
    def real_nodes(self):
        return self.base.real_nodes

    @property
    def magnitude_cap(self):
        return self.base.magnitude_cap

    def has_node(self, v):
        return self.base.has_node(v)

    def schema(self) -> set:
        out = self.base.schema()
        out.update((d.name, len(d.params)) for d in self.defs)
        return out

    def arity_of(self, name: str) -> int:
        d = self._by_name.get(name)
        if d is not None:
            return len(d.params)
        return self.base.arity_of(name)

    def stored_values(self, name: str):
        """The base graph's stored values; None for auxiliary names."""
        if name in self._by_name:
            return None
        return self.base.stored_values(name)

    def lookup(self, name: str, args) -> ExtInt:
        args = tuple(args)
        d = self._by_name.get(name)
        if d is None:
            return self.base.lookup(name, args)
        if len(args) != len(d.params):
            from .errors import ArityMismatch
            raise ArityMismatch(
                f"labelling {name!r} has arity {len(d.params)}, got {len(args)}")
        key = (name, args)
        hit = self._memo.get(key)
        if hit is not None or key in self._memo:
            return hit
        value = eval_term(d.body, self, dict(zip(d.params, args)))
        return self._memo.setdefault(key, value)

    def out_neighbours(self, name: str, u):
        """The base graph's out-neighbour index; None for auxiliary names."""
        if name in self._by_name:
            return None
        return self.base.out_neighbours(name, u)


def extend(g, defs: Iterable[OntologyDef], engine=None) -> ExtendedGraph:
    """Extend a graph with auxiliary labellings, added left to right."""
    return ExtendedGraph(g, defs, engine=engine)


def resolve_bound(bound, gx) -> ExtInt:
    """The value of an arithmetical constraint's bound on a graph."""
    if isinstance(bound, BoundConst):
        return bound.value
    value = gx.lookup(bound.name, ())
    return ext_add(ext_mul(bound.sign, value), bound.offset)


# ---------------------------------------------------------------------------
# Term evaluation
# ---------------------------------------------------------------------------

def eval_term(t: Term, g, env: Dict[str, object]) -> ExtInt:
    """Evaluate a term on a (possibly extended) graph under a node binding."""
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TLabel):
        return g.lookup(t.name, tuple(env[v] for v in t.vars))
    if isinstance(t, TIdent):
        left = SINK if t.left is SINK else env[t.left]
        right = SINK if t.right is SINK else env[t.right]
        return _bool(left is right or left == right)
    if isinstance(t, TApply):
        if t.fn in AGGREGATE_FUNCTIONS:
            values = [eval_term(a, g, env) for a in t.args]
            return eval_aggregate(t.fn, values)
        arity, impl = SCALAR_FUNCTIONS[t.fn]
        args = [eval_term(a, g, env) for a in t.args]
        if arity is not None and len(args) != arity:
            from .errors import ArityMismatch
            raise ArityMismatch(f"function {t.fn!r} expects {arity} arguments")
        return impl(*args)
    if isinstance(t, TAggregate):
        values = []
        for v in g.nodes:
            sub = dict(env)
            sub[t.var] = v
            if ext_cmp(eval_term(t.filter, g, sub), 1) == 0:
                values.append(eval_term(t.element, g, {t.var: v}))
        return eval_aggregate(t.fn, values)
    if isinstance(t, TSubquery):
        eng = g.engine
        nodes = tuple(env[v] for v in t.query.select_nodes)
        return _bool(eng.holds_on(t.query, g, nodes, ()))
    if isinstance(t, TPathExtremum):
        eng = g.engine
        bindings = {v: env[v] for v in t.query.select_nodes}
        return eng.extremal_on(t.labelling, t.query, g, bindings, t.direction)
    raise TypeError(f"unhandled term {t!r}")
