"""Per-layer tracing from outside the engine.

`Tracer.install` replaces public entry points of the `opra` modules with
wrappers that open a frame per call.  Frames nest; a frame's self time is
its duration minus the time of the frames it encloses, and each layer
adds up the self time of its frames.  Cold entry points (parsing,
validation, compilation, searches, engine calls) also keep a span record
(name, start, end, parent span, operation id) in memory; hot ones (label
lookups, letter evaluation, successor calls) only add to counters, so a
traced pass keeps its memory.  `uninstall` restores every replaced
attribute.
"""

from __future__ import annotations

import json
from time import perf_counter

COUNTS = (
    "parser.calls", "graph.lookups", "terms.extend_calls",
    "terms.aux_lookups", "terms.aux_evals", "nfa.compiles",
    "nfa.letter_evals", "product.oracles", "product.nodes_touched",
    "product.successor_calls", "product.candidates_scanned",
    "product.candidates_kept", "vass.searches", "vass.configs",
    "vass.exhausted", "vass.certify_calls", "vass.extremal_calls",
    "engine.calls", "engine.nested_evals",
)

# time buckets: a frame's self time goes to its bucket
BUCKETS = (
    "parser.s", "model.validate_s", "graph.load_s", "graph.lookup_s",
    "terms.self_s", "nfa.compile_s", "nfa.letter_s", "product.self_s",
    "vass.self_s", "engine.self_s",
)


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.times = dict.fromkeys(BUCKETS, 0.0)
        self.spans = []
        self.op = None  # operation id shared by the spans of one call
        self._stack = []  # [bucket, start, child time, span index]
        self._aux_depth = 0  # open ExtendedGraph.lookup frames of aux names
        self._search_depth = 0  # open solve_core frames
        self._scan_frame = None  # innermost _free_slot_candidates frame
        self._saved = []

    # -- frames -------------------------------------------------------------

    def _enter(self, bucket, name=None):
        span = -1
        if name is not None:
            parent = self._stack[-1][3] if self._stack else -1
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        frame = [bucket, perf_counter(), 0.0, span]
        self._stack.append(frame)
        return frame

    def _leave(self, frame):
        end = perf_counter()
        self._stack.pop()
        total = end - frame[1]
        self.times[frame[0]] += total - frame[2]
        if self._stack:
            self._stack[-1][2] += total
        if frame[3] >= 0:
            rec = self.spans[frame[3]]
            rec[1], rec[2] = frame[1], end

    def snapshot(self) -> dict:
        out = dict(self.counts)
        out.update(self.times)
        return out

    def reset(self):
        for k in self.counts:
            self.counts[k] = 0
        for k in self.times:
            self.times[k] = 0.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    # -- wrappers -----------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr, bucket, count=None, span=False):
        fn = owner.__dict__[attr]
        name = f"{getattr(owner, '__name__', owner)}.{attr}" if span else None
        counts = self.counts
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            frame = enter(bucket, name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        self._replace(owner, attr, wrapper)

    def install(self, opra_pkg):
        """Wrap the entry points of an imported `opra` package."""
        from importlib import import_module

        graph = import_module(opra_pkg.__name__ + ".graph")
        model = import_module(opra_pkg.__name__ + ".model")
        parser = import_module(opra_pkg.__name__ + ".parser")
        terms = import_module(opra_pkg.__name__ + ".terms")
        nfa = import_module(opra_pkg.__name__ + ".nfa")
        product = import_module(opra_pkg.__name__ + ".product")
        vass = import_module(opra_pkg.__name__ + ".vass")
        engine = import_module(opra_pkg.__name__ + ".engine")
        counts = self.counts
        enter, leave = self._enter, self._leave

        # set-up entry points, as the benchmark calls them
        self._wrap(parser, "parse", "parser.s", "parser.calls", span=True)
        self._wrap(graph, "load_graph", "graph.load_s", span=True)
        self._wrap(model, "require_valid", "model.validate_s", span=True)
        # the names the engine module bound at import
        self._wrap(engine, "require_valid", "model.validate_s", span=True)
        self._wrap(engine, "extend", "terms.self_s", "terms.extend_calls",
                   span=True)
        self._wrap(engine, "nfa_compile", "nfa.compile_s", "nfa.compiles",
                   span=True)
        self._wrap(engine, "pad_extend", "nfa.compile_s", span=True)
        self._wrap(product, "eval_letter", "nfa.letter_s", "nfa.letter_evals")
        self._wrap(graph.Graph, "lookup", "graph.lookup_s", "graph.lookups")

        ext_lookup = terms.ExtendedGraph.__dict__["lookup"]

        def lookup(gx, name, args):
            if self._stack and self._stack[-1] is self._scan_frame:
                counts["product.candidates_scanned"] += 1
            aux = name in gx._by_name
            if aux:
                counts["terms.aux_lookups"] += 1
                if (name, tuple(args)) not in gx._memo:
                    counts["terms.aux_evals"] += 1
                self._aux_depth += 1
            frame = enter("terms.self_s")
            try:
                return ext_lookup(gx, name, args)
            finally:
                leave(frame)
                if aux:
                    self._aux_depth -= 1

        self._replace(terms.ExtendedGraph, "lookup", lookup)

        oracle_cls = product.AnswerOracle
        init = oracle_cls.__dict__["__init__"]

        def oracle_init(o, *args, **kwargs):
            counts["product.oracles"] += 1
            frame = enter("product.self_s")
            try:
                init(o, *args, **kwargs)
            finally:
                leave(frame)

        self._replace(oracle_cls, "__init__", oracle_init)

        initials = oracle_cls.__dict__["initials"]

        def oracle_initials(o):
            gen = initials(o)
            while True:
                before = len(o._touched)
                frame = enter("product.self_s")
                try:
                    item = next(gen, _DONE)
                finally:
                    leave(frame)
                    counts["product.nodes_touched"] += len(o._touched) - before
                if item is _DONE:
                    return
                yield item

        self._replace(oracle_cls, "initials", oracle_initials)

        successors = oracle_cls.__dict__["successors"]

        def oracle_successors(o, u):
            counts["product.successor_calls"] += 1
            before = len(o._touched)
            frame = enter("product.self_s")
            try:
                return successors(o, u)
            finally:
                leave(frame)
                counts["product.nodes_touched"] += len(o._touched) - before

        self._replace(oracle_cls, "successors", oracle_successors)

        candidates = oracle_cls.__dict__["_free_slot_candidates"]
        sink = graph.SINK

        # examined: each label lookup made by the scan itself (one per node
        # and edge constraint tried) plus the sink test; for a slot without
        # constraints, every candidate returned; from the sink, the sink
        def free_slot_candidates(o, slot, cur):
            outer = self._scan_frame
            frame = self._scan_frame = enter("product.self_s")
            try:
                out = candidates(o, slot, cur)
            finally:
                leave(frame)
                self._scan_frame = outer
            counts["product.candidates_scanned"] += \
                1 if cur is sink or slot.constraints else len(out)
            counts["product.candidates_kept"] += len(out)
            return out

        self._replace(oracle_cls, "_free_slot_candidates", free_slot_candidates)

        weights = oracle_cls.__dict__["weights"]

        def oracle_weights(o, u):
            if self._search_depth:
                counts["vass.configs"] += 1
            frame = enter("product.self_s")
            try:
                return weights(o, u)
            finally:
                leave(frame)

        self._replace(oracle_cls, "weights", oracle_weights)

        solve_core = vass.__dict__["solve_core"]

        def traced_solve_core(*args, **kwargs):
            counts["vass.searches"] += 1
            frame = enter("vass.self_s", "vass.solve_core")
            self._search_depth += 1
            try:
                res = solve_core(*args, **kwargs)
            finally:
                self._search_depth -= 1
                leave(frame)
            if res.status == vass.EXHAUSTED:
                counts["vass.exhausted"] += 1
            return res

        self._replace(vass, "solve_core", traced_solve_core)
        self._wrap(vass, "extremal", "vass.self_s", "vass.extremal_calls",
                   span=True)
        self._wrap(vass, "_certify_empty", "vass.self_s", "vass.certify_calls",
                   span=True)

        engine_cls = engine.Engine
        for attr in ("answers", "holds", "extremal"):
            self._wrap(engine_cls, attr, "engine.self_s", "engine.calls",
                       span=True)
        for attr in ("holds_on", "extremal_on"):
            fn = engine_cls.__dict__[attr]
            span_name = f"Engine.{attr}"

            def nested(*args, _fn=fn, _name=span_name, **kwargs):
                if self._aux_depth:
                    counts["engine.nested_evals"] += 1
                frame = enter("engine.self_s", _name)
                try:
                    return _fn(*args, **kwargs)
                finally:
                    leave(frame)

            self._replace(engine_cls, attr, nested)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


_DONE = object()


def layer_metrics(setup: dict, passes: list) -> dict:
    """Per-layer metrics of one set-up plus one pass: counts from the first
    pass (every pass repeats them), times as the median over passes."""
    from statistics import median

    first = passes[0]
    out = {}
    for k in COUNTS:
        if k != "product.candidates_kept":
            out[k] = setup[k] + first[k]
    for k in BUCKETS:
        out[k] = setup[k] + median(p[k] for p in passes)
    lookups = out["terms.aux_lookups"]
    out["terms.aux_hit_ratio"] = \
        (lookups - out["terms.aux_evals"]) / lookups if lookups else 0.0
    scanned = out["product.candidates_scanned"]
    kept = setup["product.candidates_kept"] + first["product.candidates_kept"]
    out["product.candidates_kept_ratio"] = kept / scanned if scanned else 0.0
    return out
