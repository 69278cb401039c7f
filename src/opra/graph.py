"""Labelled-graph data model.

A graph is a finite node set with a distinguished sink node plus named total
labelling functions of arbitrary arity into the extended integers.  Paths are
node sequences; reading past the end of a path yields the sink, which is how
paths of different lengths are synchronized.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from .errors import (
    ArityMismatch,
    EmptyPathList,
    GraphFormatError,
    InvalidEdge,
    MagnitudeCapExceeded,
    UndefinedInfinitySum,
    UnknownLabelling,
    UnknownNode,
)


class _Sink:
    """The padding node. A single instance exists; it equals only itself."""

    __slots__ = ()

    def __repr__(self):
        return "SINK"

    def __str__(self):
        return "□"


SINK = _Sink()

NodeId = Any  # hashable; str for file-backed graphs, SINK for the sink
Path = Tuple[NodeId, ...]


# ---------------------------------------------------------------------------
# Extended integers
# ---------------------------------------------------------------------------

class _Infinity:
    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

ExtInt = Any  # int | _Infinity


def is_finite(a: ExtInt) -> bool:
    return not isinstance(a, _Infinity)


def ext_add(a: ExtInt, b: ExtInt) -> ExtInt:
    if isinstance(a, _Infinity):
        if isinstance(b, _Infinity) and a.sign != b.sign:
            raise UndefinedInfinitySum("POS_INF + NEG_INF is undefined")
        return a
    if isinstance(b, _Infinity):
        return b
    return a + b


def ext_mul(a: ExtInt, b: ExtInt) -> ExtInt:
    # 0 * (+-inf) = 0 so that guard expressions like (1 - 2*g) * inf stay total
    if a == 0 or b == 0:
        return 0
    if isinstance(a, _Infinity) or isinstance(b, _Infinity):
        sa = a.sign if isinstance(a, _Infinity) else (1 if a > 0 else -1)
        sb = b.sign if isinstance(b, _Infinity) else (1 if b > 0 else -1)
        return POS_INF if sa * sb > 0 else NEG_INF
    return a * b


def ext_cmp(a: ExtInt, b: ExtInt) -> int:
    """Total order: NEG_INF < any finite < POS_INF. Returns -1, 0 or 1."""
    if isinstance(a, _Infinity):
        if isinstance(b, _Infinity):
            return (a.sign > b.sign) - (a.sign < b.sign)
        return a.sign
    if isinstance(b, _Infinity):
        return -b.sign
    return (a > b) - (a < b)


def ext_min(a: ExtInt, b: ExtInt) -> ExtInt:
    return a if ext_cmp(a, b) <= 0 else b


def ext_max(a: ExtInt, b: ExtInt) -> ExtInt:
    return a if ext_cmp(a, b) >= 0 else b


def ext_sum(values: Iterable[ExtInt]) -> ExtInt:
    total: ExtInt = 0
    for v in values:
        total = ext_add(total, v)
    return total


# ---------------------------------------------------------------------------
# Labellings and graphs
# ---------------------------------------------------------------------------

class Labelling:
    """A total function from node tuples of a fixed arity to extended integers.

    Totality comes from a per-labelling default; only exceptions to the
    default are stored.
    """

    __slots__ = ("name", "arity", "default", "entries")

    def __init__(self, name: str, arity: int,
                 entries: Mapping[Tuple[NodeId, ...], ExtInt] | None = None,
                 default: ExtInt = 0):
        if arity < 0:
            raise ArityMismatch(f"labelling {name!r}: negative arity")
        self.name = name
        self.arity = arity
        self.default = default
        self.entries: Dict[Tuple[NodeId, ...], ExtInt] = {}
        for key, value in (entries or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise ArityMismatch(
                    f"labelling {name!r}: entry key {key!r} has length "
                    f"{len(key)}, arity is {arity}")
            self.entries[key] = value

    def value(self, args: Tuple[NodeId, ...]) -> ExtInt:
        return self.entries.get(args, self.default)

    def finite_values(self) -> Iterable[ExtInt]:
        yield self.default
        yield from self.entries.values()

    def __repr__(self):
        return f"Labelling({self.name!r}, arity={self.arity})"


DEFAULT_MAGNITUDE_CAP = 10 ** 6


class Graph:
    """Immutable labelled graph.  The sink node is always a member.

    Construction also indexes the out-neighbours of every binary labelling
    whose default is 0, so that successor steps read adjacency lists instead
    of probing every node.
    """

    depth = 0  # the plain graph is the bottom evaluation level

    def __init__(self, nodes: Iterable[NodeId],
                 labellings: Iterable[Labelling] = (),
                 magnitude_cap: int | None = DEFAULT_MAGNITUDE_CAP):
        real = set(nodes)
        real.discard(SINK)
        self._real_nodes = tuple(sorted(real, key=str))
        self.nodes = frozenset(real) | {SINK}
        self.labellings: Dict[str, Labelling] = {}
        self.magnitude_cap = magnitude_cap
        for lab in labellings:
            if lab.name in self.labellings:
                raise GraphFormatError(f"duplicate labelling {lab.name!r}")
            if magnitude_cap is not None:
                for v in lab.finite_values():
                    if is_finite(v) and abs(v) > magnitude_cap:
                        raise MagnitudeCapExceeded(
                            f"labelling {lab.name!r} stores {v}, "
                            f"cap is {magnitude_cap}")
            self.labellings[lab.name] = lab
        self._out = {lab.name: self._out_index(lab)
                     for lab in self.labellings.values()
                     if lab.arity == 2 and ext_cmp(lab.default, 0) == 0}

    def _out_index(self, lab: Labelling) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Source -> the real targets with a nonzero entry, in `real_nodes`
        order (so candidate order matches a scan over `real_nodes`)."""
        rank = {v: i for i, v in enumerate(self._real_nodes)}
        out: Dict[NodeId, list] = {}
        for (u, v), value in lab.entries.items():
            if v in rank and ext_cmp(value, 0) != 0:
                out.setdefault(u, []).append(v)
        return {u: tuple(sorted(vs, key=rank.__getitem__))
                for u, vs in out.items()}

    @property
    def real_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes except the sink, in a deterministic order."""
        return self._real_nodes

    def has_node(self, v: NodeId) -> bool:
        return v is SINK or v in self.nodes

    def schema(self) -> set:
        return {(lab.name, lab.arity) for lab in self.labellings.values()}

    def labelling(self, name: str) -> Labelling:
        try:
            return self.labellings[name]
        except KeyError:
            raise UnknownLabelling(name) from None

    def arity_of(self, name: str) -> int:
        return self.labelling(name).arity

    def stored_values(self, name: str) -> Iterable[ExtInt]:
        """The labelling's default and stored entries."""
        return self.labelling(name).finite_values()

    def lookup(self, name: str, args: Sequence[NodeId]) -> ExtInt:
        lab = self.labelling(name)
        args = tuple(args)
        if len(args) != lab.arity:
            raise ArityMismatch(
                f"labelling {name!r} has arity {lab.arity}, got {len(args)} args")
        for a in args:
            if not self.has_node(a):
                raise UnknownNode(repr(a))
        return lab.value(args)

    def out_neighbours(self, name: str,
                       u: NodeId) -> Tuple[NodeId, ...] | None:
        """The real nodes v with `lookup(name, (u, v))` nonzero, in
        `real_nodes` order, or None when `name` has no index (it is not a
        binary labelling with default 0).  `u` is not checked."""
        index = self._out.get(name)
        if index is None:
            return None
        return index.get(u, ())


def lookup(graph: Graph, name: str, args: Sequence[NodeId]) -> ExtInt:
    return graph.lookup(name, args)


# ---------------------------------------------------------------------------
# Paths and the synchronization word
# ---------------------------------------------------------------------------

def path_at(p: Sequence[NodeId], i: int) -> NodeId:
    """1-based access; positions 0 and beyond the length read the sink."""
    if 1 <= i <= len(p):
        return p[i - 1]
    return SINK


def comb(paths: Sequence[Sequence[NodeId]]) -> Tuple[Tuple[NodeId, ...], ...]:
    """Synchronize paths into a word of 3k-windows.

    Window j lists (previous, current, next) for each path at position j;
    the word is as long as the longest path.
    """
    if not paths:
        raise EmptyPathList("comb requires at least one path")
    length = max(len(p) for p in paths)
    word = []
    for j in range(1, length + 1):
        window = []
        for p in paths:
            window.extend((path_at(p, j - 1), path_at(p, j), path_at(p, j + 1)))
        word.append(tuple(window))
    return tuple(word)


# ---------------------------------------------------------------------------
# Standard embeddings
# ---------------------------------------------------------------------------

ECRPQ_EDGE = "E"
ECRPQ_SAME = "same"
ECRPQ_EOP = "eop"  # the end-of-path tag; reads 1 at the sink as well


def letter_labelling_name(letter: str) -> str:
    return f"lab_{letter}"


def _embedded_name(v, a) -> str:
    return f"{v}|{a}"


def embed_ecrpq(nodes: Iterable[str], edges: Iterable[Tuple[str, str, str]],
                alphabet: Iterable[str]) -> Graph:
    """Standard embedding of an edge-alphabet graph.

    Nodes become (node, letter) pairs over the alphabet extended with an
    end-of-path tag; edges move between consecutive tagged pairs, `same` ties
    pairs carrying one original node, and per-letter unary labellings expose
    the tags.  The end-of-path labelling defaults to 1 so it also holds at
    the sink, which keeps translated letter tests total over padding.
    """
    nodes = list(dict.fromkeys(nodes))
    alphabet = list(dict.fromkeys(alphabet))
    node_set = set(nodes)
    letter_set = set(alphabet)
    edges = list(edges)
    for (u, a, w) in edges:
        if u not in node_set or w not in node_set or a not in letter_set:
            raise InvalidEdge(f"edge {(u, a, w)!r} references undeclared parts")

    end_tag = "_"
    tags = alphabet + [end_tag]
    emb_nodes = [_embedded_name(v, a) for v in nodes for a in tags]

    e_entries = {}
    for (u, a, w) in edges:
        for a2 in tags:
            e_entries[(_embedded_name(u, a), _embedded_name(w, a2))] = 1

    labs = [Labelling(ECRPQ_EDGE, 2, e_entries, default=0)]
    for b in alphabet:
        labs.append(Labelling(
            letter_labelling_name(b), 1,
            {(_embedded_name(v, b),): 1 for v in nodes}, default=0))
    # eop: 0 exactly on letter-tagged embedded nodes, 1 elsewhere (incl. sink)
    labs.append(Labelling(
        ECRPQ_EOP, 1,
        {(_embedded_name(v, a),): 0 for v in nodes for a in alphabet},
        default=1))
    same_entries = {}
    for v in nodes:
        for a1 in tags:
            for a2 in tags:
                same_entries[(_embedded_name(v, a1), _embedded_name(v, a2))] = 1
    labs.append(Labelling(ECRPQ_SAME, 2, same_entries, default=0))
    return Graph(emb_nodes, labs)


def embedded_node(v: str) -> str:
    """The canonical embedded correspondent of an original node."""
    return _embedded_name(v, "_")


def embedded_path(path_nodes: Sequence[str], letters: Sequence[str]) -> Path:
    """Embed an interleaved path v0 a0 v1 ... vn given nodes and letters."""
    if len(path_nodes) != len(letters) + 1:
        raise InvalidEdge("path has mismatched node/letter counts")
    out = [_embedded_name(v, a) for v, a in zip(path_nodes, letters)]
    out.append(embedded_node(path_nodes[-1]))
    return tuple(out)


DATA_EDGE = "E"
DATA_VALUE = "data"


def data_edge_node(v: str, letter: str, w: str) -> str:
    return f"{v}>{letter}>{w}"


def embed_data_graph(nodes: Iterable[str],
                     edges: Iterable[Tuple[str, str, str]],
                     data: Mapping[str, int],
                     alphabet: Iterable[str] = ()) -> Graph:
    """Standard embedding of a data graph: nodes plus one node per edge.

    The data labelling carries node values (0 on edge-nodes); per-letter
    labellings tag edge-nodes.  `alphabet` may declare letters beyond those
    appearing on edges so their labellings exist regardless.
    """
    nodes = list(dict.fromkeys(nodes))
    node_set = set(nodes)
    for v in nodes:
        if v not in data:
            raise GraphFormatError(f"data value missing for node {v!r}")
    edges = list(dict.fromkeys(edges))
    letters = list(dict.fromkeys(alphabet))
    for (u, a, w) in edges:
        if u not in node_set or w not in node_set:
            raise InvalidEdge(f"edge {(u, a, w)!r} references undeclared nodes")
        if a not in letters:
            letters.append(a)

    edge_nodes = {e: data_edge_node(*e) for e in edges}
    e_entries = {}
    for e in edges:
        u, _, w = e
        e_entries[(u, edge_nodes[e])] = 1
        e_entries[(edge_nodes[e], w)] = 1

    labs = [
        Labelling(DATA_EDGE, 2, e_entries, default=0),
        Labelling(DATA_VALUE, 1, {(v,): data[v] for v in nodes}, default=0),
    ]
    for b in letters:
        labs.append(Labelling(
            letter_labelling_name(b), 1,
            {(edge_nodes[e],): 1 for e in edges if e[1] == b}, default=0))
    return Graph(list(nodes) + list(edge_nodes.values()), labs)


def embed_data_path(data_path: Sequence) -> Path:
    """Map an alternating data path [v0, a1, v1, ...] (node names) to the
    embedded node sequence."""
    if len(data_path) % 2 == 0:
        raise InvalidEdge("data path must have odd length (node, letter, ...)")
    out = [data_path[0]]
    for i in range(1, len(data_path), 2):
        u, a, w = out[-1], data_path[i], data_path[i + 1]
        out.append(data_edge_node(u, a, w))
        out.append(w)
    return tuple(out)


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def _value_to_json(v: ExtInt):
    if v is POS_INF:
        return "+inf"
    if v is NEG_INF:
        return "-inf"
    return v


def _value_from_json(v) -> ExtInt:
    if v == "+inf":
        return POS_INF
    if v == "-inf":
        return NEG_INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise GraphFormatError(f"bad label value {v!r}")
    return v


def graph_to_dict(g: Graph) -> dict:
    return {
        "nodes": [str(v) for v in g.real_nodes],
        "labellings": [
            {
                "name": lab.name,
                "arity": lab.arity,
                "default": _value_to_json(lab.default),
                "entries": sorted(
                    ([list(map(str, key)), _value_to_json(val)]
                     for key, val in lab.entries.items()),
                    key=str),
            }
            for lab in g.labellings.values()
        ],
    }


def graph_from_dict(doc: dict, magnitude_cap: int | None = DEFAULT_MAGNITUDE_CAP) -> Graph:
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise GraphFormatError("graph document must be an object with 'nodes'")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise GraphFormatError("'nodes' must be a list of strings")
    if len(set(nodes)) != len(nodes):
        raise GraphFormatError("duplicate node names")
    if str(SINK) in nodes or "SINK" in nodes:
        raise GraphFormatError("the sink node is implicit and must not be listed")
    node_set = set(nodes)
    labs = []
    for entry in doc.get("labellings", []):
        try:
            name = entry["name"]
            arity = entry["arity"]
            default = _value_from_json(entry.get("default", 0))
            raw = entry.get("entries", [])
        except (KeyError, TypeError) as exc:
            raise GraphFormatError(f"bad labelling entry: {exc}") from None
        if not isinstance(arity, int) or arity < 0:
            raise GraphFormatError(f"labelling {name!r}: bad arity {arity!r}")
        entries = {}
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2):
                raise GraphFormatError(f"labelling {name!r}: bad entry {item!r}")
            key, value = item
            key = tuple(key)
            for v in key:
                if v not in node_set:
                    raise GraphFormatError(
                        f"labelling {name!r}: unknown node {v!r} in entry")
            entries[key] = _value_from_json(value)
        labs.append(Labelling(name, arity, entries, default))
    return Graph(nodes, labs, magnitude_cap=magnitude_cap)


def load_graph(path, magnitude_cap: int | None = DEFAULT_MAGNITUDE_CAP) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(str(exc)) from None
    return graph_from_dict(doc, magnitude_cap=magnitude_cap)


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")
