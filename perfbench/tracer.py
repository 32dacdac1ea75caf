"""Outside-in tracing of the package's layers, installed by the benchmark.

`Tracer.install` replaces public functions and methods of each module with
timing wrappers, in every namespace of the package that imported them, and
`uninstall` puts the originals back.  Coarse boundaries (job, parse, state
sum or bracket, outermost evaluate, fallback search, cache load and store)
also record spans; the hot functions (ring operators, signatures, rules)
only add to per-name call counts and times, so memory stays bounded.

A nested call of a layer that is already active (evaluate's recursion,
canonical_signature calling signature_of_arrays) is not counted again: its
time stays with the outer call.  Self time is a layer's time minus the time
of the wrapped layers it called.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

# (module, attribute or Class.method, layer name, records spans)
TARGETS = [
    ("diagrams", "parse_braid", "diagrams.parse", True),
    ("diagrams", "parse_pd", "diagrams.parse", True),
    ("diagrams", "parse_regraph", "diagrams.parse", True),
    ("diagrams", "braid_to_link", "diagrams.parse", True),
    ("diagrams", "StateResolver.resolve_arrays", "diagrams.resolve_arrays", False),
    ("diagrams", "stack", "diagrams.stack", False),
    ("diagrams", "Tangle.signature", "diagrams.tangle_signature", False),
    ("maps", "signature_of_arrays", "maps.signature", False),
    ("maps", "canonical_signature", "maps.signature", False),
    ("invariants", "kauffman_state_sum", "invariants.state_sum", True),
    ("invariants", "bracket", "invariants.bracket", True),
    ("skein", "evaluate", "skein.evaluate", True),
    ("skein", "alternating_walk_reduce", "skein.fallback", True),
    ("skein", "apply_wide_digon", "skein.rules.apply_wide_digon", False),
    ("skein", "apply_lollipop", "skein.rules.apply_lollipop", False),
    ("skein", "square_move", "skein.rules.square_move", False),
    ("skein", "h_rotate", "skein.rules.h_rotate", False),
    ("ring", "RingElem.__mul__", "ring.mul", False),
    ("ring", "RingElem.__add__", "ring.add", False),
    ("ring", "_normalize", "ring.normalize", False),
    ("cli", "cache_load", "cli.cache_load", True),
    ("cli", "cache_store", "cli.cache_store", True),
]

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.records: dict[str, list] = {}      # name -> [calls, total_s, child_s]
        self.counters = {"ring.max_monomials": 0, "ring.max_dpow": 0,
                         "cli.cache_load.rows": 0, "cli.cache_store.bytes": 0}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.job = -1
        self._stack: list[list[float]] = []
        self._active: set[str] = set()
        self._span_depth = 0
        self._undo: list = []
        self._t0 = time.perf_counter()

    # -- wrapping -------------------------------------------------------------

    def _observer(self, name: str):
        counters = self.counters

        def ring_result(args, r):
            if len(r.num.terms) > counters["ring.max_monomials"]:
                counters["ring.max_monomials"] = len(r.num.terms)
            if r.dpow > counters["ring.max_dpow"]:
                counters["ring.max_dpow"] = r.dpow

        def rows(args, r):
            counters["cli.cache_load.rows"] += r

        def stored(args, r):
            counters["cli.cache_store.bytes"] += os.path.getsize(args[0])

        return {"ring.mul": ring_result, "ring.add": ring_result,
                "cli.cache_load": rows, "cli.cache_store": stored}.get(name)

    def _wrap(self, fn, name: str, span: bool):
        rec = self.records.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        active = self._active
        observe = self._observer(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kw):
            if name in active:
                return fn(*args, **kw)
            active.add(name)
            frame = [0.0]
            stack.append(frame)
            if span:
                tracer._span_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(name)
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    tracer._record_span(name, t0, dt)
                    tracer._span_depth -= 1
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; a missing target raises AttributeError."""
        package = [m for n, m in sys.modules.items()
                   if n == "dubrovnik" or n.startswith("dubrovnik.")]
        for modname, attr, name, span in TARGETS:
            module = sys.modules["dubrovnik." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, span)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- spans ----------------------------------------------------------------

    def _record_span(self, name: str, t0: float, dt: float) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.job, name, self._span_depth,
                               round(t0 - self._t0, 7), round(dt, 7)))
        else:
            self.dropped_spans += 1

    @contextmanager
    def job_span(self, index: int):
        """The job boundary: the root span of everything the job calls."""
        self.job = index
        rec = self.records.setdefault("job", [0, 0.0, 0.0])
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            rec[0] += 1
            rec[1] += dt
            rec[2] += frame[0]
            self._record_span("job", t0, dt)

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.records.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        calls, total, child = self.records.get(name, [0, 0.0, 0.0])
        return total - child

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for job, name, depth, start, dur in self.spans:
                f.write(json.dumps({"job": job, "name": name, "depth": depth,
                                    "start_s": start, "dur_s": dur}) + "\n")
