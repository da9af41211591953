"""Outside-in span tracing of exactrb for the benchmark's traced runs.

The tracer replaces the public functions of each exactrb module (and
``UnitaryEnsemble.sample``) by wrappers that record a span per call:
name, start, end, the span that called it, and the operation it belongs to.
A function is replaced in its own module and in every traced module that
imported it by name (as ``haar`` does ``from .paulis import
vec_basis_matrix``), so calls between modules reach the wrappers; calls to
private helpers are charged to the public caller.  Only the
names that exist in the code being measured are wrapped, and
``uninstall`` restores the original objects, so untraced work runs on the
unmodified package.  Spans stay in memory until the run writes them out.

Counters that the program does not report itself (sequences, gate steps,
shots, sampled unitaries, chi^2 evaluations, frame-potential terms) are
derived here from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("cli", "rb", "designs", "haar", "zonal", "irreps", "channels",
           "numerics", "paulis")
SAMPLE = "designs.UnitaryEnsemble.sample"


def _count_mc(args, kwargs, result, parent):
    import numpy as np

    config = args[0] if args else kwargs["config"]
    n_curve = config.n_sequences * len(config.sequence_lengths)
    n_prep = int((np.abs(np.linalg.eigvalsh(config.o_ini)) > 1e-12).sum())
    return {"rb.sequences": n_curve,
            "rb.gate_steps": config.n_sequences * sum(m + 1 for m in config.sequence_lengths),
            "rb.shots": n_curve * config.n_shots * n_prep}


def _count_fit(args, kwargs, result, parent):
    return {"rb.fit.chi2_evals": int(result.n_evaluations),
            "rb.fit.flagged": int(bool(result.flags))}


def _count_sample(args, kwargs, result, parent):
    # nested draws of a product ensemble's layers are not new unitaries
    if parent == SAMPLE:
        return {}
    return {"designs.sampled_unitaries": int(result.shape[0])}


def _count_frame_potential(signature):
    def count(args, kwargs, result, parent):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        e, mode = bound.arguments["e"], bound.arguments["mode"]
        if mode == "exact-pairs":
            terms = e.size ** 2
        elif mode == "interleaved-reduced":
            terms = e.layers[0].ensemble.size ** 2
        else:
            terms = bound.arguments["samples"]
        return {"designs.frame_potential.terms": int(terms)}
    return count


class Tracer:
    """Span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op]
        self.counts = []     # (name, value, op)
        self.op = None
        self._stack = []
        self._saved = []

    def install(self, package: str = "exactrb") -> None:
        mods = [importlib.import_module(package + "." + m) for m in MODULES]
        wrappers = {}   # id of the original object -> its wrapper
        for modname, mod in zip(MODULES, mods):
            for name, obj in list(vars(mod).items()):
                # plain functions and cached ones (lru_cache wrappers)
                fn = inspect.unwrap(obj) if callable(obj) else None
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                label = modname + "." + name
                wrappers[id(obj)] = self._wrap(label, obj, self._counter(label, obj))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        designs = importlib.import_module(package + ".designs")
        cls = getattr(designs, "UnitaryEnsemble", None)
        if cls is not None and inspect.isfunction(cls.__dict__.get("sample")):
            self._patch(cls, "sample", self._wrap(SAMPLE, cls.__dict__["sample"], _count_sample))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def _patch(self, owner, name, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    @staticmethod
    def _counter(label, fn):
        if label == "rb.v_t_monte_carlo":
            return _count_mc
        if label == "rb.fit_exponentials":
            return _count_fit
        if label == "designs.frame_potential":
            return _count_frame_potential(inspect.signature(fn))
        return None

    def _wrap(self, label, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            record = [label, 0.0, 0.0, parent, self.op]
            self.spans.append(record)
            self._stack.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                parent_name = self.spans[parent][0] if parent >= 0 else None
                try:
                    counts = counter(args, kwargs, result, parent_name)
                except (TypeError, KeyError, AttributeError, ValueError):
                    # the call's signature changed; the counter reads 0
                    counts = {}
                for key, value in counts.items():
                    self.counts.append((key, value, self.op))
            return result
        return wrapper

    def summarize(self) -> dict:
        """Per operation: seconds and calls per name, self time per module
        and the counters.  A span's self time excludes its direct children."""
        child_time: dict = {}
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        per_op: dict = {}
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            out = per_op.setdefault(op, {})
            dur = end - start
            out[name + ".s"] = out.get(name + ".s", 0.0) + dur
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            module = name.split(".", 1)[0] + ".self_s"
            out[module] = out.get(module, 0.0) + dur - child_time.get(idx, 0.0)
        for name, value, op in self.counts:
            out = per_op.setdefault(op, {})
            out[name] = out.get(name, 0) + value
        return per_op

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))
            fh.write("\n")
