"""Per-layer trace of spincat, recorded from outside the package.

``Tracer.install()`` replaces every binding of each layer's public functions
across the loaded ``spincat.*`` modules with a wrapper that records a span
(name, start, end, parent span) and a few counts; ``uninstall()`` puts every
original back.  No file of the package changes.

Layers are spincat's modules, plus ``io`` (the functions that write result
files) and ``linalg`` (``scipy.linalg.expm`` and ``numpy.linalg.eigh`` /
``eigvalsh``).  Spans are kept in per-thread buffers of flat arrays.  A span
opened in a worker thread with no open span of its own takes as parent the
innermost open span of the installing thread, which is the call that is
waiting on the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import time
from array import array

import numpy as np

MODULE_LAYERS = ("cli", "scenarios", "control", "hamiltonian", "spin", "dynamics", "observables")
LAYERS = MODULE_LAYERS + ("io", "linalg")
IO_FUNCTIONS = ("save_size_series", "save_husimi", "write_manifest")
WRAPPED_FLAG = "__perfbench_wrapped__"


def _grid_steps(args, kwargs, result, counts, buf):
    grid = next(a for a in (*args, *kwargs.values()) if hasattr(a, "n_steps"))
    counts["steps"] += grid.n_steps
    counts["samples"] += len(result.states)


def _expm_matrices(args, kwargs, result, counts, buf):
    counts["matrices"] += math.prod(np.shape(args[0])[:-2])


def _bytes_written(args, kwargs, result, counts, buf):
    if isinstance(result, str):  # write_manifest returns its path
        path = result
    else:
        path = kwargs["path"] if "path" in kwargs else args[1]
    counts["bytes"] += os.path.getsize(path)


def _distinct_spins(args, kwargs, result, counts, buf):
    buf.spins.add(args[0] if args else kwargs["spin"])


_MEASURES = {
    "evolve_unitary": _grid_steps,
    "evolve_lindblad": _grid_steps,
    "expm": _expm_matrices,
    "spin_operators": _distinct_spins,
    **{name: _bytes_written for name in IO_FUNCTIONS},
}


def traced_functions():
    """(layer, name, function) for every function the tracer wraps."""
    out = []
    for layer in MODULE_LAYERS:
        mod = importlib.import_module("spincat." + layer)
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append(("io" if name in IO_FUNCTIONS else layer, name, fn))
    import scipy.linalg

    out.append(("linalg", "expm", scipy.linalg.expm))
    out.append(("linalg", "eigh", np.linalg.eigh))
    out.append(("linalg", "eigvalsh", np.linalg.eigvalsh))
    return out


def _method_targets():
    from spincat.control import PulseSchedule, PulseSegment

    return [(cls, "envelope") for cls in (PulseSegment, PulseSchedule)]


class _Buffer:
    """Spans closed in one thread, as flat arrays (about 36 bytes a span)."""

    def __init__(self):
        self.stack = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {}
        self.spins = set()


class Tracer:
    def __init__(self):
        self.names = []  # name id -> (layer, name)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._root = None
        self._patches = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, layer, name):
        name_id = len(self.names)
        self.names.append((layer, name))
        measure = _MEASURES.get(name)
        key = f"{layer}.{name}"
        ids, buffer, root = self._ids, self._buffer, self._root
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = root.stack[-1] if root.stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.parents.append(parent)
                buf.names.append(name_id)
                buf.starts.append(t0)
                buf.ends.append(t1)
            if measure is not None:
                counts = buf.counts.setdefault(key, {"steps": 0, "samples": 0, "matrices": 0, "bytes": 0})
                measure(args, kwargs, result, counts, buf)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_FLAG, True)
        return wrapper

    def install(self):
        """Wrap every binding of the traced functions in spincat's modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root = self._buffer()
        wrappers = {}  # id(original) -> (original, wrapper)
        try:
            for layer, name, fn in traced_functions():
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
            import scipy.linalg

            owners = [scipy.linalg, np.linalg] + [
                mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == "spincat" or key.startswith("spincat."))
            ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        self._patch(owner, attr, wrapper)
            for cls, attr in _method_targets():
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, "control", "envelope"))
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> dict:
        """All closed spans as arrays indexed by span id; ``parent`` is a span id or -1."""
        bufs = self._buffers
        ids = np.concatenate([np.frombuffer(b.ids, dtype=np.int64) for b in bufs])
        if not np.array_equal(np.sort(ids), np.arange(len(ids))):
            raise RuntimeError("some spans are still open")
        order = np.argsort(ids)

        def column(field, dtype):
            return np.concatenate([np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs])[order]

        return {
            "name": column("names", np.int32),
            "start": column("starts", np.float64),
            "end": column("ends", np.float64),
            "parent": column("parents", np.int64),
        }

    def counts(self) -> tuple:
        """(per-function counts summed over threads, distinct spin_operators arguments)."""
        total, spins = {}, set()
        for buf in self._buffers:
            spins |= buf.spins
            for key, counts in buf.counts.items():
                into = total.setdefault(key, dict.fromkeys(counts, 0))
                for k, v in counts.items():
                    into[k] += v
        return total, spins


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children from one thread nest and never overlap; children from worker
    threads may, so the covered part is the union of the children's
    intervals, clipped to the parent.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = parents[i]
        if p != current:
            current, reach = p, starts[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass that took ``wall_s`` seconds."""
    spans = tracer.spans()
    self_s = self_times(spans["start"], spans["end"], spans["parent"])
    incl_s = spans["end"] - spans["start"]
    n_names = len(tracer.names)
    calls_by = np.bincount(spans["name"], minlength=n_names)
    self_by = np.bincount(spans["name"], weights=self_s, minlength=n_names)
    incl_by = np.bincount(spans["name"], weights=incl_s, minlength=n_names)
    calls, selfs, incls, layer_self = {}, {}, {}, dict.fromkeys(LAYERS, 0.0)
    for i, (layer, name) in enumerate(tracer.names):
        key = f"{layer}.{name}"
        calls[key] = calls.get(key, 0) + int(calls_by[i])
        selfs[key] = selfs.get(key, 0.0) + float(self_by[i])
        incls[key] = incls.get(key, 0.0) + float(incl_by[i])
        layer_self[layer] += float(self_by[i])
    counts, spins = tracer.counts()

    def count(key, field):
        return counts.get(key, {}).get(field, 0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    m = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    for fn in ("evolve_unitary", "evolve_lindblad"):
        key = f"dynamics.{fn}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.steps"] = count(key, "steps")
        m[f"{key}.steps_per_s"] = rate(count(key, "steps"), incls[key])
    m["dynamics.samples"] = count("dynamics.evolve_unitary", "samples") + count("dynamics.evolve_lindblad", "samples")
    m["control.cat_schedule.calls"] = calls["control.cat_schedule"]
    m["control.rotating_frame_hamiltonian.calls"] = calls["control.rotating_frame_hamiltonian"]
    m["control.envelope.calls"] = calls["control.envelope"]
    m["control.envelope.self_s"] = selfs["control.envelope"]
    m["linalg.expm.calls"] = calls["linalg.expm"]
    m["linalg.expm.matrices"] = count("linalg.expm", "matrices")
    m["linalg.expm.self_s"] = selfs["linalg.expm"]
    m["linalg.eig.calls"] = calls["linalg.eigh"] + calls["linalg.eigvalsh"]
    m["linalg.eig.self_s"] = selfs["linalg.eigh"] + selfs["linalg.eigvalsh"]
    m["spin.is_hermitian.calls"] = calls["spin.is_hermitian"]
    m["spin.spin_operators.calls"] = calls["spin.spin_operators"]
    m["spin.spin_operators.reuse_ratio"] = len(spins) / calls["spin.spin_operators"] if calls["spin.spin_operators"] else 0.0
    m["hamiltonian.energy_ladder.calls"] = calls["hamiltonian.energy_ladder"]
    m["observables.effective_size.calls"] = calls["observables.effective_size"]
    m["observables.husimi_q.calls"] = calls["observables.husimi_q"]
    m["io.bytes"] = sum(count(f"io.{fn}", "bytes") for fn in IO_FUNCTIONS)
    m["scenarios.calls"] = sum(n for key, n in calls.items() if key.startswith("scenarios."))
    m["trace.spans"] = len(self_s)
    m["trace.unattributed_frac"] = 1.0 - sum(layer_self.values()) / wall_s
    return m


def save_spans(path: str, tracers) -> None:
    """Write the spans of each traced pass (arrays tagged with the pass index)."""
    parts = [t.spans() for t in tracers]
    names = [f"{layer}.{name}" for layer, name in tracers[0].names] if tracers else []
    np.savez(
        path,
        names=np.array(names),
        **{key: np.concatenate([p[key] for p in parts]) for key in ("name", "start", "end", "parent")},
        traced_pass=np.concatenate([np.full(len(p["name"]), i) for i, p in enumerate(parts)]),
    )
