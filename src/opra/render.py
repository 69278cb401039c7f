"""Canonical textual rendering; `parse(render(q))` is structurally `q`."""

from __future__ import annotations

from .graph import NEG_INF, POS_INF, SINK
from .model import (
    ArithConstraint,
    Atom,
    BoundConst,
    NCConst,
    NCSink,
    OntologyDef,
    PathConstraint,
    PosRef,
    Query,
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

_INFIX = {"add": "+", "sub": "-", "mul": "*",
          "le": "<=", "lt": "<", "eq": "=", "gt": ">", "ge": ">=", "ne": "!="}


def _ext(v) -> str:
    if v is POS_INF:
        return "+inf"
    if v is NEG_INF:
        return "-inf"
    return str(v)


def _pos_ref(r: PosRef) -> str:
    if r.offset > 0:
        return f"{r.var}@+1"
    if r.offset < 0:
        return f"{r.var}@-1"
    return f"{r.var}@0"


def _nc_value(v) -> str:
    if isinstance(v, NCConst):
        return _ext(v.value)
    if isinstance(v, NCSink):
        return "SINK"
    if isinstance(v, PosRef):
        return _pos_ref(v)
    return f"{v.name}({', '.join(_pos_ref(r) for r in v.refs)})"


def _letter(letter: RLetter) -> str:
    parts = []
    for nc in letter.conjuncts:
        if isinstance(nc, Top):
            parts.append("TOP")
        else:
            parts.append(f"{_nc_value(nc.lhs)} {nc.op} {_nc_value(nc.rhs)}")
    return "<" + " && ".join(parts) + ">"


def _regex(r, parent: str = "top") -> str:
    if isinstance(r, RLetter):
        return _letter(r)
    if isinstance(r, RStar):
        inner = _regex(r.inner, "star")
        if not isinstance(r.inner, RLetter):
            inner = f"({inner})"
        return inner + "*"
    if isinstance(r, RConcat):
        body = " ".join(_regex(p, "concat") for p in r.parts)
        # parenthesize under star and inside another concatenation so the
        # printed tree re-parses with the same shape
        return f"({body})" if parent in ("star", "concat") else body
    body = " + ".join(_regex(p, "alt") for p in r.parts)
    if parent in ("concat", "star", "alt"):
        return f"({body})"
    return body


def _term(t) -> str:
    if isinstance(t, TConst):
        return _ext(t.value)
    if isinstance(t, TLabel):
        return f"{t.name}({', '.join(t.vars)})"
    if isinstance(t, TIdent):
        left = "SINK" if t.left is SINK else t.left
        right = "SINK" if t.right is SINK else t.right
        return f"({left} = {right})"
    if isinstance(t, TApply):
        op = _INFIX.get(t.fn)
        if op is not None and len(t.args) == 2:
            return f"({_term(t.args[0])} {op} {_term(t.args[1])})"
        return f"{t.fn}({', '.join(_term(a) for a in t.args)})"
    if isinstance(t, TAggregate):
        return f"{t.fn}({{{_term(t.element)} : {_term(t.filter)}}})"
    if isinstance(t, TSubquery):
        return f"[{render(t.query)}]"
    if isinstance(t, TPathExtremum):
        kw = "minpath" if t.direction == "min" else "maxpath"
        return f"{kw}({t.labelling}, {t.pathvar}, [{render(t.query)}])"
    raise TypeError(f"unhandled term {t!r}")


def _atom_term(coef: int, atom: Atom, first: bool) -> str:
    body = f"{atom.labelling}[{', '.join(atom.vars)}]"
    mag = abs(coef)
    prefix = body if mag == 1 else f"{mag}*{body}"
    if first:
        return prefix if coef >= 0 else f"-{prefix}" if mag == 1 else f"-{mag}*{body}"
    return f"+ {prefix}" if coef >= 0 else f"- {prefix}"


def _bound(b) -> str:
    if isinstance(b, BoundConst):
        return _ext(b.value)
    name = f"{b.name}()" if b.sign > 0 else f"-{b.name}()"
    if b.offset > 0:
        return f"{name} + {b.offset}"
    if b.offset < 0:
        return f"{name} - {-b.offset}"
    return name


def _arith(ac: ArithConstraint) -> str:
    parts = [_atom_term(c, a, i == 0) for i, (c, a) in enumerate(ac.terms)]
    return f"{' '.join(parts)} <= {_bound(ac.bound)}"


def _ontology(d: OntologyDef) -> str:
    return f"{d.name}({', '.join(d.params)}) := {_term(d.body)}"


def _path_constraint(pc: PathConstraint) -> str:
    return f"{pc.source} -[{pc.path}]-> {pc.target} : {pc.edge_labelling}"


def render(q: Query) -> str:
    """Canonical single-line text for a query."""
    chunks = []
    if q.ontologies:
        chunks.append("LET " + ", ".join(_ontology(d) for d in q.ontologies) + " IN")
    if not q.select_nodes and not q.select_paths:
        chunks.append("SELECT ()")
    else:
        sel = "SELECT"
        if q.select_nodes:
            sel += " NODES " + ", ".join(q.select_nodes)
        if q.select_paths:
            sel += ("," if q.select_nodes else "") + " PATHS " + ", ".join(q.select_paths)
        chunks.append(sel)
    if q.path_constraints:
        chunks.append("SUCH THAT " +
                      " AND ".join(_path_constraint(pc) for pc in q.path_constraints))
    if q.regular_constraints:
        chunks.append("WHERE " +
                      " AND ".join(_regex(r) for r in q.regular_constraints))
    if q.arithmetical_constraints:
        chunks.append("HAVING " +
                      " AND ".join(_arith(ac) for ac in q.arithmetical_constraints))
    return " ".join(chunks)
