"""Top-level query evaluation.

Free and quantified node variables are ground by enumeration over the
non-sink nodes; path variables become product slots (bound slots replay
given paths, free slots are searched).  `answers` leaves a selected node
variable open when it is only the target of one path, so one search per
source serves every target.  Ontology terms see the engine
through the extended graph, so truth subqueries and path extrema recurse
into the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ArityMismatch, BoundExhausted, RecursionLimit, UnknownNode
from .graph import NEG_INF, POS_INF, ext_max, ext_min
from .model import Query, letter_refs, regex_variables, require_valid
from .nfa import compile as nfa_compile
from .nfa import pad_extend
from .product import OPEN, AnswerOracle, CompiledCore, DimSpec, SlotSpec
from .terms import ExtendedGraph, extend, resolve_bound
from . import vass


@dataclass
class EngineLimits:
    """Per-search configuration budget, counter box (None derives one from
    the weights and bounds) and the depth of nested evaluations.  For an
    extremum, `max_configs` also caps the product nodes of its live region,
    and the labels and label comparisons of its search."""
    max_configs: int = vass.MAX_CONFIGS
    counter_box: Optional[int] = None
    recursion_limit: int = 64


class _Prepared:
    """Query compiled against one extended graph: automata, dimensions and
    resolved bounds, reusable across node instantiations."""

    def __init__(self, q: Query, gx: ExtendedGraph):
        self.query = q
        self.gx = gx
        self.nfas = [(pad_extend(nfa_compile(r)), regex_variables(r))
                     for r in q.regular_constraints]
        self.prev_vars = set()
        for r in q.regular_constraints:
            self.prev_vars |= _offset_minus_vars(r)
        self.dim_terms: List[Tuple[Tuple[int, str, Tuple[str, ...]], ...]] = []
        self.bounds: List = []
        for ac in q.arithmetical_constraints:
            self.dim_terms.append(tuple(
                (coef, atom.labelling, atom.vars) for coef, atom in ac.terms))
            self.bounds.append(resolve_bound(ac.bound, gx))
        self.node_vars = q.node_vars()
        self.pc_by_var: Dict[str, List] = {}
        for pc in q.path_constraints:
            self.pc_by_var.setdefault(pc.path, []).append(pc)
        coerced = q.coerced_node_vars()
        self.slot_vars = list(q.select_paths) \
            + sorted(coerced) \
            + list(q.quantified_paths())
        self.select_slots = tuple(self.slot_vars.index(v)
                                  for v in q.select_paths)
        self.open_target = _open_target(q, self.pc_by_var)

    def core(self, env: Dict[str, object], bound_paths: Dict[str, Tuple],
             free_vars: Sequence[str],
             objective: Optional[Tuple[str, str]] = None) -> CompiledCore:
        """The product core under one full node binding.  `objective`
        (labelling, path variable) appends that atom as a last dimension."""
        free = set(free_vars)
        slots = []
        index: Dict[str, int] = {}
        for var in self.slot_vars:
            constraints = tuple(
                (env[pc.source], env[pc.target], pc.edge_labelling)
                for pc in self.pc_by_var.get(var, ()))
            if var in free:
                path = None
            elif var in bound_paths:
                path = tuple(bound_paths[var])
            else:  # coerced node variable: a one-node path
                path = (env[var],)
            index[var] = len(slots)
            slots.append(SlotSpec(var, path, constraints,
                                  var in self.prev_vars))
        # a regex mentioning no position variables constrains all paths
        every = tuple(range(len(slots)))
        nfas = tuple((nfa, tuple(index[v] for v in variables) or every)
                     for nfa, variables in self.nfas)
        dim_terms = list(self.dim_terms)
        if objective is not None:
            labelling, pathvar = objective
            dim_terms.append(((1, labelling, (pathvar,)),))
        dims = tuple(DimSpec(tuple((coef, lab, tuple(index[v] for v in vars_))
                                   for coef, lab, vars_ in terms))
                     for terms in dim_terms)
        return CompiledCore(tuple(slots), nfas, dims)

    def witness(self, decoded: Tuple) -> Tuple:
        """The selected paths of a decoded run."""
        return tuple(decoded[i] for i in self.select_slots)

    def oracles(self, base_env: Dict[str, object],
                bound_paths: Dict[str, Tuple], free_vars: Sequence[str],
                objective: Optional[Tuple[str, str]] = None):
        """One answer oracle per binding of the node variables that
        `base_env` leaves free, in a fixed order."""
        free = sorted(self.node_vars - set(base_env))
        for combo in iproduct(self.gx.real_nodes, repeat=len(free)):
            env = dict(base_env)
            env.update(zip(free, combo))
            yield AnswerOracle(
                self.core(env, bound_paths, free_vars, objective), self.gx)


def _open_target(q: Query, pc_by_var) -> Optional[str]:
    """The last selected node variable whose only use is as the target of
    one path constraint over a path slot of its own; one search from each
    binding of the others then serves every value of it."""
    coerced, node_vars = q.coerced_node_vars(), q.node_vars()
    for y in reversed(q.select_nodes):
        uses = [pc for pc in q.path_constraints if y in (pc.source, pc.target)]
        if len(uses) == 1 and uses[0].source != y and y not in coerced \
                and uses[0].path not in node_vars \
                and len(pc_by_var[uses[0].path]) == 1:
            return y
    return None


def _offset_minus_vars(regex) -> set:
    from .model import RLetter, RStar
    out = set()

    def walk(node):
        if isinstance(node, RLetter):
            for ref in letter_refs(node):
                if ref.offset == -1:
                    out.add(ref.var)
        elif isinstance(node, RStar):
            walk(node.inner)
        else:
            for part in node.parts:
                walk(part)

    walk(regex)
    return out


class Engine:
    """Evaluation under fixed limits.  An engine keeps no per-call state;
    the nesting depth of an evaluation is read off its extended graph."""

    def __init__(self, limits: Optional[EngineLimits] = None):
        self.limits = limits or EngineLimits()

    # -- public API -------------------------------------------------------------

    def holds(self, q: Query, g, nodes: Sequence = (), paths: Sequence = ()) -> bool:
        """Does the query hold at the given selected-variable instantiation?"""
        require_valid(q, g.schema())
        _require_nodes(g, chain(nodes, *paths))
        return self.holds_on(q, g, tuple(nodes), tuple(paths))

    def answers(self, q: Query, g, max_witness_len: Optional[int] = None):
        """All selected-node tuples with one decoded witness each.

        Returns (set of (node tuple, witness path tuple), complete flag);
        the flag drops when some instantiation stayed inconclusive.
        """
        require_valid(q, g.schema())
        gx = self._extend(q, g)
        prepared = _Prepared(q, gx)
        if prepared.open_target is not None and max_witness_len is None:
            return self._answers_per_source(prepared)
        complete = True
        out = set()
        n_sel = len(q.select_nodes)
        for sel in iproduct(g.real_nodes, repeat=n_sel):
            found, ok = self._find_answer(prepared, dict(zip(q.select_nodes, sel)),
                                          max_witness_len)
            complete = complete and ok
            if found is not None:
                out.add((tuple(sel), found))
        return out, complete

    def extremal(self, labelling: str, q: Query, g, bindings: Dict[str, object],
                 direction: str):
        """Extremum of `labelling` summed over the single selected path."""
        require_valid(q, g.schema())
        if len(q.select_paths) != 1:
            raise ArityMismatch("extremal requires exactly one selected path")
        _require_nodes(g, bindings.values())
        return self.extremal_on(labelling, q, g, bindings, direction)

    # -- internal recursion points (used by ontology terms) ---------------------

    def holds_on(self, q: Query, g, nodes: Tuple, paths: Tuple) -> bool:
        if len(nodes) != len(q.select_nodes):
            raise ArityMismatch(
                f"{len(q.select_nodes)} selected nodes, got {len(nodes)}")
        if len(paths) != len(q.select_paths):
            raise ArityMismatch(
                f"{len(q.select_paths)} selected paths, got {len(paths)}")
        gx = self._extend(q, g)
        prepared = _Prepared(q, gx)
        bound = dict(zip(q.select_paths, map(tuple, paths)))
        exhausted = False
        for oracle in prepared.oracles(dict(zip(q.select_nodes, nodes)), bound,
                                       q.quantified_paths()):
            try:
                if not vass.emptiness(oracle, prepared.bounds,
                                      max_configs=self.limits.max_configs,
                                      box=self.limits.counter_box):
                    return True
            except BoundExhausted:
                exhausted = True
        if exhausted:
            raise BoundExhausted("query evaluation inconclusive")
        return False

    def extremal_on(self, labelling: str, q: Query, g,
                    bindings: Dict[str, object], direction: str):
        gx = self._extend(q, g)
        if gx.arity_of(labelling) != 1:
            raise ArityMismatch(
                f"path extremum needs a unary labelling, got {labelling!r}")
        prepared = _Prepared(q, gx)
        pathvar = q.select_paths[0]
        obj_dim = len(prepared.bounds)
        bounds = tuple(prepared.bounds) + (POS_INF,)
        best = None
        exhausted = False
        free_vars = list(q.quantified_paths()) + [pathvar]
        for oracle in prepared.oracles(dict(bindings), {}, free_vars,
                                       (labelling, pathvar)):
            try:
                value = vass.extremal(oracle, obj_dim, bounds, direction,
                                      max_configs=self.limits.max_configs,
                                      box=self.limits.counter_box)
            except BoundExhausted:
                exhausted = True
                continue
            if direction == "min":
                if value is NEG_INF:
                    return NEG_INF
                best = value if best is None else ext_min(best, value)
            else:
                if value is POS_INF:
                    return POS_INF
                best = value if best is None else ext_max(best, value)
        if exhausted:
            raise BoundExhausted("extremal evaluation inconclusive")
        if best is None:
            return POS_INF if direction == "min" else NEG_INF
        return best

    # -- helpers ---------------------------------------------------------------

    def _extend(self, q: Query, g) -> ExtendedGraph:
        gx = extend(g, q.ontologies, engine=self)
        if gx.depth > self.limits.recursion_limit:
            raise RecursionLimit(
                f"nested evaluation deeper than {self.limits.recursion_limit}")
        return gx

    def _answers_per_source(self, prepared: _Prepared):
        """`answers` with one search per binding of the selected variables
        other than the open target, which serves every target it reaches.
        A target such a search left unsettled (budget or box) takes the
        per-tuple search."""
        q = prepared.query
        nodes = prepared.gx.real_nodes
        y = prepared.open_target
        others = [v for v in q.select_nodes if v != y]
        free_vars = list(q.select_paths) + list(q.quantified_paths())
        complete = True
        out = set()
        for combo in iproduct(nodes, repeat=len(others)):
            sel_env = dict(zip(others, combo))
            sel_env[y] = OPEN
            found: Dict[object, Tuple] = {}
            settled = True
            for oracle in prepared.oracles(sel_env, {}, free_vars):
                decoded, ok = vass.witnesses_by_end(
                    oracle, prepared.bounds,
                    max_configs=self.limits.max_configs,
                    box=self.limits.counter_box)
                settled = settled and ok
                for end, run in decoded.items():
                    found.setdefault(end, prepared.witness(run))
                if len(found) == len(nodes):
                    break
            for v in nodes:
                sel_env[y] = v
                tup = tuple(sel_env[s] for s in q.select_nodes)
                if v in found:
                    out.add((tup, found[v]))
                elif not settled:
                    witness, ok = self._find_answer(prepared, dict(sel_env),
                                                    None)
                    complete = complete and ok
                    if witness is not None:
                        out.add((tup, witness))
        return out, complete

    def _find_answer(self, prepared: _Prepared, sel_env: Dict[str, object],
                     max_witness_len: Optional[int]):
        """One witness for the selected paths, or (None, conclusive flag)."""
        q = prepared.query
        free_vars = list(q.select_paths) + list(q.quantified_paths())
        exhausted = False
        for oracle in prepared.oracles(sel_env, {}, free_vars):
            try:
                decoded = vass.find_witness(oracle, prepared.bounds,
                                            max_len=max_witness_len,
                                            max_configs=self.limits.max_configs,
                                            box=self.limits.counter_box)
            except BoundExhausted:
                exhausted = True
                continue
            if decoded is not None:
                return prepared.witness(decoded), True
        if max_witness_len is not None:
            # a bounded search that found nothing proves nothing
            return None, False
        return None, not exhausted


def _require_nodes(g, nodes: Iterable) -> None:
    """Reject node ids from the caller that are not nodes of the graph; the
    evaluation below follows adjacency and would not notice them."""
    for v in nodes:
        if not g.has_node(v):
            raise UnknownNode(repr(v))


DEFAULT_ENGINE = Engine()


def holds(q: Query, g, nodes: Sequence = (), paths: Sequence = ()) -> bool:
    return DEFAULT_ENGINE.holds(q, g, nodes, paths)


def answers(q: Query, g, max_witness_len: Optional[int] = None):
    return DEFAULT_ENGINE.answers(q, g, max_witness_len)


def extremal(labelling: str, q: Query, g, bindings: Dict[str, object],
             direction: str):
    return DEFAULT_ENGINE.extremal(labelling, q, g, bindings, direction)
