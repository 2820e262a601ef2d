"""In-memory span tracer for the qpictures benchmark.

``Tracer.install`` wraps the public functions of every qpictures module,
plus the few methods and private helpers the per-layer metrics need, and
rebinds each wrapper under every name that any qpictures module binds the
original to.  The modules import each other with ``from .x import y``, so
wrapping only the defining module would miss most calls (``experiment``
calls its own ``evolve`` binding, ``verification`` its own
``evolve_circuit``).  ``Tracer.uninstall`` restores every binding, so an
untraced round runs the program exactly as shipped.

Each wrapped call records a span: id, parent span, operation id, name and
start/end times.  Spans of one benchmark operation share its operation
id.  A span's self time is its duration minus the time covered by its
child spans; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "verification", "experiment", "bell", "gates", "heisenberg", "pauli", "states")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters for one traced round.

    Use a fresh tracer per round: ``install()``, run the round,
    ``uninstall()``, then read ``metrics()``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.counters: Counter = Counter()
        self.image_keys: set = set()
        self.op = -1
        self._next_id = 0
        self._stack = [-1]
        self._child = [0.0]
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return idx

    def call(self, idx: int, f, *args, **kwargs):
        """Run ``f`` inside a span named ``self.names[idx]``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            covered = self._child.pop()
            dur = t1 - t0
            self._child[-1] += dur
            self.calls[idx] += 1
            self.inclusive[idx] += dur
            self.self_time[idx] += dur - covered
            self.span_id.append(sid)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_name.append(idx)
            self.span_start.append(t0)
            self.span_end.append(t1)

    # -- wrappers ---------------------------------------------------------

    def _plain(self, name: str, f):
        idx = self.intern(name)
        call = self.call

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            return call(idx, f, *args, **kwargs)

        return wrapper

    def _generator(self, name: str, f):
        """Each resume of the generator is one span, so the generator body's
        time is attributed to its own layer, not to the consumer."""
        idx = self.intern(name)
        call = self.call
        counters = self.counters

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            it = f(*args, **kwargs)
            while True:
                try:
                    item = call(idx, next, it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def _evolve(self, f, term_growth_error, axes):
        idx = {kind: self.intern(f"heisenberg.evolve.{kind}") for kind in ("clifford", "rotation")}
        call = self.call
        counters = self.counters

        @functools.wraps(f)
        def wrapper(ds, gate):
            kind = "rotation" if gate.name == "R" else "clifford"
            try:
                out = call(idx[kind], f, ds, gate)
            except term_growth_error:
                counters["heisenberg.errors"] += 1
                raise
            terms = [len(out.descriptor(q, a)) for q in gate.qubits for a in axes]
            counters["heisenberg.terms_total"] += sum(terms)
            counters["heisenberg.terms_max"] = max(counters["heisenberg.terms_max"], max(terms))
            return out

        return wrapper

    def _images(self, f):
        idx = self.intern("heisenberg.conjugation_images")
        call = self.call
        keys = self.image_keys

        @functools.wraps(f)
        def wrapper(gate):
            # Same key the program's image cache uses, computed from outside.
            keys.add((gate.name, gate.arity, gate.params, gate.matrix.tobytes()))
            return call(idx, f, gate)

        return wrapper

    def _apply_gate(self, f):
        idx = self.intern("states.apply_gate")
        call = self.call
        counters = self.counters

        @functools.wraps(f)
        def wrapper(state, gate):
            # Computed traffic: read and write 2**n complex128 amplitudes.
            counters["states.apply_gate_bytes"] += 2 * 16 * 2**state.width
            return call(idx, f, state, gate)

        return wrapper

    def _expectation(self, f):
        idx = self.intern("states.expectation")
        call = self.call
        counters = self.counters

        @functools.wraps(f)
        def wrapper(state, op, *args, **kwargs):
            counters["states.expectation_terms"] += len(op)
            return call(idx, f, state, op, *args, **kwargs)

        return wrapper

    def _operator_mul(self, f, operator_sum):
        product = self.intern("pauli.product")
        scale = self.intern("pauli.scale")
        call = self.call
        counters = self.counters

        @functools.wraps(f)
        def wrapper(a, b):
            if not isinstance(b, operator_sum):
                return call(scale, f, a, b)
            out = call(product, f, a, b)
            counters["pauli.product_pairs"] += len(a) * len(b)
            counters["pauli.product_terms_out"] += len(out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"qpictures.{layer}") for layer in LAYERS}
        heisenberg, pauli, states = mods["heisenberg"], mods["pauli"], mods["states"]
        special = {
            heisenberg.evolve: self._evolve(
                heisenberg.evolve, heisenberg.TermGrowthError, (pauli.Axis.X, pauli.Axis.Y, pauli.Axis.Z)
            ),
            heisenberg.conjugation_images: self._images(heisenberg.conjugation_images),
            states.apply_gate: self._apply_gate(states.apply_gate),
            states.expectation: self._expectation(states.expectation),
        }
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if obj in special:
                    wrapper = special[obj]
                elif inspect.isgeneratorfunction(obj):
                    wrapper = self._generator(f"{layer}.{name}", obj)
                else:
                    wrapper = self._plain(f"{layer}.{name}", obj)
                wrappers[id(obj)] = (obj, wrapper)
        # The full four-step evolution that experiment.timelines_built counts.
        evolution = mods["experiment"]._evolution
        wrappers[id(evolution)] = (evolution, self._plain("experiment.timeline", evolution))

        # Rebind every name, in every qpictures module, that holds a target.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qpictures" or mod_name.startswith("qpictures.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        verification = mods["verification"]
        self._set(
            verification,
            "ALL_CHECKS",
            tuple(wrappers[id(check)][1] for check in verification.ALL_CHECKS),
        )
        operator_sum = pauli.OperatorSum
        self._set(operator_sum, "__mul__", self._operator_mul(operator_sum.__mul__, operator_sum))
        self._set(operator_sum, "__add__", self._plain("pauli.add", operator_sum.__add__))
        gate = mods["gates"].Gate
        self._set(gate, "__post_init__", self._plain("gates.build", gate.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def _calls(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def _seconds(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.inclusive[idx]

    def metrics(self, check_names) -> dict[str, float]:
        """Per-layer metrics for the round, keyed by metric name.

        ``*_s`` entries named after a function are inclusive times of that
        function's calls; ``<layer>.self_s`` is the layer's self time.
        """
        c = self.counters
        m: dict[str, float] = {}
        self_by_layer = Counter()
        for idx, name in enumerate(self.names):
            self_by_layer[_layer(name)] += self.self_time[idx]
        for layer in ("bench",) + LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        for check in check_names:
            m[f"verification.check_s.{check}"] = self._seconds(f"verification.check_{check}")
        m["verification.compare_pictures_calls"] = self._calls("verification.compare_pictures")
        m["verification.compare_pictures_s"] = self._seconds("verification.compare_pictures")
        m["experiment.timelines_built"] = self._calls("experiment.timeline")
        m["experiment.report_calls"] = self._calls("experiment.pre_vs_post_report")
        m["experiment.report_s"] = self._seconds("experiment.pre_vs_post_report")
        m["bell.correlation_calls"] = self._calls("bell.correlation")
        m["bell.correlation_s"] = self._seconds("bell.correlation")
        m["bell.scan_rows_calls"] = c["bell.scan_rows.calls"]
        m["gates.gates_built"] = self._calls("gates.build")
        m["gates.build_s"] = self._seconds("gates.build")
        for kind in ("clifford", "rotation"):
            m[f"heisenberg.evolve_calls.{kind}"] = self._calls(f"heisenberg.evolve.{kind}")
            m[f"heisenberg.evolve_s.{kind}"] = self._seconds(f"heisenberg.evolve.{kind}")
        images = self._calls("heisenberg.conjugation_images")
        m["heisenberg.images_calls"] = images
        m["heisenberg.images_s"] = self._seconds("heisenberg.conjugation_images")
        m["heisenberg.image_reuse_ratio"] = 1.0 - len(self.image_keys) / images if images else 0.0
        m["heisenberg.descriptor_expectation_s"] = self._seconds("heisenberg.descriptor_expectation")
        m["heisenberg.terms_max"] = c["heisenberg.terms_max"]
        m["heisenberg.terms_total"] = c["heisenberg.terms_total"]
        m["heisenberg.errors"] = c["heisenberg.errors"]
        pairs = c["pauli.product_pairs"]
        m["pauli.product_calls"] = self._calls("pauli.product")
        m["pauli.product_s"] = self._seconds("pauli.product")
        m["pauli.product_pairs"] = pairs
        m["pauli.product_keep_ratio"] = c["pauli.product_terms_out"] / pairs if pairs else 0.0
        m["pauli.add_s"] = self._seconds("pauli.add")
        m["pauli.expectation_s"] = self._seconds("pauli.expectation_in_all_zeros")
        apply_s = self._seconds("states.apply_gate")
        m["states.apply_gate_calls"] = self._calls("states.apply_gate")
        m["states.apply_gate_s"] = apply_s
        m["states.apply_gate_bytes"] = c["states.apply_gate_bytes"]
        m["states.apply_gate_gbps"] = c["states.apply_gate_bytes"] / apply_s / 1e9 if apply_s else 0.0
        m["states.expectation_calls"] = self._calls("states.expectation")
        m["states.expectation_terms"] = c["states.expectation_terms"]
        m["states.expectation_s"] = self._seconds("states.expectation")
        m["trace.spans"] = len(self.span_id)
        return m

    def save_spans(self, path) -> None:
        """Write the spans as columns of an ``.npz`` archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
