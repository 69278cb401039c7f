"""From-scratch reference evaluation by exhaustive enumeration.

Constraints are checked directly against their definitions: path constraints
by walking the path, regular constraints through the recursive matcher on
the synchronization word, arithmetical constraints by summing labels
positionwise.  No product construction, no reachability solver; quantified
paths are enumerated up to a length bound, so a negative answer is only
exhaustive up to that bound.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Dict, Sequence, Tuple

from .graph import POS_INF, ext_add, ext_cmp, ext_mul, path_at
from .model import Query, regex_variables, require_valid
from .nfa import match_direct
from .terms import extend, resolve_bound


def atom_value(gx, labelling: str, paths: Sequence[Tuple]) -> object:
    length = max((len(p) for p in paths), default=0)
    total = 0
    for i in range(1, length + 1):
        args = tuple(path_at(p, i) for p in paths)
        total = ext_add(total, gx.lookup(labelling, args))
    return total


def check_instantiation(q: Query, gx, env: Dict[str, object],
                        path_env: Dict[str, Tuple]) -> bool:
    """All constraints of the query body under a full instantiation."""

    def as_path(var: str) -> Tuple:
        if var in path_env:
            return path_env[var]
        return (env[var],)  # coerced node variable

    for pc in q.path_constraints:
        p = as_path(pc.path)
        if not p or p[0] != env[pc.source] or p[-1] != env[pc.target]:
            return False
        for a, b in zip(p, p[1:]):
            if ext_cmp(gx.lookup(pc.edge_labelling, (a, b)), 0) == 0:
                return False

    all_path_vars = list(path_env) + sorted(q.coerced_node_vars())
    for r in q.regular_constraints:
        variables = regex_variables(r)
        selected = variables if variables else tuple(all_path_vars)
        # a variable-free regex ranges over every path of the query
        if not match_direct(r, tuple(as_path(v) for v in selected), gx):
            return False

    for ac in q.arithmetical_constraints:
        total = 0
        for coef, atom in ac.terms:
            value = atom_value(gx, atom.labelling,
                               [as_path(v) for v in atom.vars])
            total = ext_add(total, ext_mul(coef, value))
        if ext_cmp(total, resolve_bound(ac.bound, gx)) > 0:
            return False
    return True


def all_paths(nodes: Sequence, max_len: int):
    """Every path over the given nodes up to the length bound, empty included."""
    out = [()]
    layer = [()]
    for _ in range(max_len):
        nxt = []
        for p in layer:
            for v in nodes:
                nxt.append(p + (v,))
        out.extend(nxt)
        layer = nxt
    return out


def constrained_walks(gx, g, src, tgt, edge: str, max_len: int):
    """Walks from src to tgt whose steps all carry a nonzero edge label."""
    out = []
    stack = [(src,)]
    while stack:
        p = stack.pop()
        if p[-1] == tgt:
            out.append(p)
        if len(p) >= max_len:
            continue
        for v in g.real_nodes:
            if ext_cmp(gx.lookup(edge, (p[-1], v)), 0) != 0:
                stack.append(p + (v,))
    return out


def _path_candidates(q: Query, gx, g, env, var: str, max_len: int):
    """Instantiation pool for one quantified path variable.

    Path-constrained variables only range over valid walks between their
    (already instantiated) endpoints; free ones over all bounded sequences.
    """
    pcs = [pc for pc in q.path_constraints if pc.path == var]
    if not pcs:
        return all_paths(g.real_nodes, max_len)
    first = pcs[0]
    return constrained_walks(gx, g, env[first.source], env[first.target],
                             first.edge_labelling, max_len)


def _satisfiable(q: Query, gx, g, env, path_env, qpaths, max_len) -> bool:
    if not qpaths:
        return check_instantiation(q, gx, env, path_env)
    var = qpaths[0]
    for p in _path_candidates(q, gx, g, env, var, max_len):
        path_env[var] = p
        if _satisfiable(q, gx, g, env, path_env, qpaths[1:], max_len):
            return True
    path_env.pop(var, None)
    return False


def holds_brute(q: Query, g, nodes: Sequence = (), paths: Sequence = (),
                max_len: int = 4, engine=None) -> bool:
    """Reference truth value; quantified paths bounded by `max_len`."""
    require_valid(q, g.schema())
    gx = extend(g, q.ontologies, engine=engine)
    env = dict(zip(q.select_nodes, nodes))
    path_env = dict(zip(q.select_paths, map(tuple, paths)))
    qnodes = [v for v in sorted(q.node_vars()) if v not in env]
    qpaths = [v for v in sorted(q.path_vars()) if v not in path_env]
    for combo_n in iproduct(g.real_nodes, repeat=len(qnodes)):
        full_env = dict(env)
        full_env.update(zip(qnodes, combo_n))
        if _satisfiable(q, gx, g, full_env, dict(path_env), qpaths, max_len):
            return True
    return False


def answers_brute(q: Query, g, max_len: int = 4, engine=None) -> set:
    """Selected-node tuples with a satisfying bounded instantiation.

    One sweep over full instantiations; selected paths are enumerated like
    quantified ones."""
    require_valid(q, g.schema())
    gx = extend(g, q.ontologies, engine=engine)
    out = set()
    sel_vars = list(q.select_nodes)
    qnodes = [v for v in sorted(q.node_vars()) if v not in sel_vars]
    qpaths = sorted(q.path_vars())
    all_node_vars = sel_vars + qnodes
    for combo in iproduct(g.real_nodes, repeat=len(all_node_vars)):
        env = dict(zip(all_node_vars, combo))
        sel = tuple(env[v] for v in sel_vars)
        if sel in out:
            continue
        if _satisfiable(q, gx, g, env, {}, qpaths, max_len):
            out.add(sel)
    return out


def extremal_brute(labelling: str, q: Query, g, bindings: Dict[str, object],
                   direction: str, max_len: int = 4, engine=None):
    """Reference extremum over bounded satisfying paths."""
    from .graph import NEG_INF
    best = None
    pathvar = q.select_paths[0]
    sel = tuple(bindings[v] for v in q.select_nodes)
    gx = extend(g, q.ontologies, engine=engine)
    for p in all_paths(g.real_nodes, max_len):
        if holds_brute(q, g, sel, (p,), max_len, engine=engine):
            value = atom_value(gx, labelling, [p])
            if best is None or \
                    (direction == "min" and ext_cmp(value, best) < 0) or \
                    (direction == "max" and ext_cmp(value, best) > 0):
                best = value
    if best is None:
        return POS_INF if direction == "min" else NEG_INF
    return best
