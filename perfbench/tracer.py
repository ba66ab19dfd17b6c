"""Outside-in span tracer for the seqcal package.

``Tracer.install()`` wraps, from outside the package, the public
functions and the methods of the classes of ``models``, ``exact``,
``estimate``, ``calibrate``, ``memory`` and ``cli``, plus the private
stages the benchmark reports (the CLI's pipelines and verify checks and
``memory._prefix_level``).  Every wrapped call records a span: name,
start, end and parent.  Spans stay in memory until the run ends;
``summary`` turns them into calls, inclusive and self time per name.  A
span's self time is its duration minus the durations of its child spans.

The package imports functions by name (``from .exact import
sequence_log_probs``), so a wrapper is rebound in every ``seqcal``
module, and every module-level dict, that holds the original.  Methods
are wrapped on each class that defines them in its own ``__dict__``.

Besides spans the tracer keeps deterministic counters, computed from
call arguments and results only:

* ``models.<kind>.rows`` -- conditional rows asked of a model from
  outside it: ``n`` per ``next_dist_batch`` and ``n * L`` per
  ``prefix_log_prob_batch`` / ``seq_log_prob_batch``.  A call made by
  the same model object from inside one of these is not counted again.
* ``models.sample_batch.tokens`` -- tokens drawn, ``n * (T - prefix)``.
* ``exact.lattice_states`` -- ``M**T`` (``M**t`` for a prefix level) per
  enumerating call.
* ``calibrate.probes`` -- optimizer probes, the ``n_iterations`` of every
  ``CalibrationResult`` the two fitters return.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("models", "exact", "estimate", "calibrate", "memory", "cli")
BATCH_METHODS = ("next_dist_batch", "prefix_log_prob_batch", "seq_log_prob_batch")

# Private functions that are stages the benchmark reports.
_PRIVATE = {
    "cli": ("_pipeline_", "_check_"),
    "memory": ("_prefix_level",),
}


def _states(model):
    return model.spec.M ** model.spec.T


# Enumerating calls and the number of lattice states each one expands,
# from the call's bound arguments.
_LATTICE = {
    "exact.sequence_log_probs": lambda a: _states(a["model"]),
    "exact.prefix_expansion": lambda a: _states(a["model"]),
    "exact.enumerate_sequences": lambda a: a["M"] ** a["T"],
    "estimate.drift_curve_exact": lambda a: _states(a["model"]),
    "models.marginalize_to_window": lambda a: _states(a["model"]),
    "memory._prefix_level": lambda a: a["model"].spec.M ** a["t"],
}

_FITTERS = ("calibrate.fit_alpha_global", "calibrate.fit_per_step_tilt")


class Tracer:
    def __init__(self):
        # One span is [name, start_ns, end_ns, parent index or -1].
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, int | None]] = []  # (span index, owner id)
        self._clock = time.perf_counter_ns

    # -- spans ------------------------------------------------------------

    def _open(self, name, owner=None) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self._clock(), 0, parent])
        self._stack.append((index, owner))
        return index

    def _close(self, index):
        self.spans[index][2] = self._clock()
        self._stack.pop()

    def _owner(self):
        return self._stack[-1][1] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def _count_lattice(self, name, fn):
        """A callable adding the call's lattice states, or None."""
        states = _LATTICE.get(name)
        if states is None:
            return None
        signature = inspect.signature(fn)

        def count(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            self.counters["exact.lattice_states"] += states(bound)

        return count

    def _function(self, name, fn):
        lattice = self._count_lattice(name, fn)
        fitter = name in _FITTERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if lattice is not None:
                lattice(args, kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if fitter:
                self.counters["calibrate.probes"] += result.n_iterations
            return result

        return wrapper

    def _generator(self, name, fn):
        """Count the call; time each step of the iteration as its own span."""
        lattice = self._count_lattice(name, fn)

        def iterate(it):
            while True:
                index = self._open(name + ".iter")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name + ".calls"] += 1
            if lattice is not None:
                lattice(args, kwargs)
            return iterate(fn(*args, **kwargs))

        return wrapper

    def _batch_method(self, method, fn):
        @functools.wraps(fn)
        def wrapper(model, batch, *args, **kwargs):
            name = f"models.{model.kind}"
            if self._owner() is not id(model):
                n, length = batch.shape[0], batch.shape[1]
                steps = 1 if method == "next_dist_batch" else length
                self.counters[name + ".rows"] += n * steps
            index = self._open(f"{name}.{method}", id(model))
            try:
                return fn(model, batch, *args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _sample_batch(self, fn):
        @functools.wraps(fn)
        def wrapper(model, n, *args, **kwargs):
            index = self._open("models.sample_batch")
            try:
                out = fn(model, n, *args, **kwargs)
            finally:
                self._close(index)
            prefix = kwargs.get("prefix", args[1] if len(args) > 1 else None)
            start = 0 if prefix is None else len(prefix)
            self.counters["models.sample_batch.tokens"] += n * (model.spec.T - start)
            return out

        return wrapper

    def _method(self, short, cls, attr, raw, fn):
        if attr in BATCH_METHODS:
            wrapped = self._batch_method(attr, fn)
        elif attr == "sample_batch":
            wrapped = self._sample_batch(fn)
        else:
            wrapped = self._function(f"{short}.{cls.__name__}.{attr}", fn)
        return type(raw)(wrapped) if fn is not raw else wrapped

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the package in place; call once per process, before the run."""
        package = [m for n, m in sys.modules.items() if n == "seqcal" or n.startswith("seqcal.")]
        for short in MODULES:
            module = sys.modules[f"seqcal.{short}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for name, raw in list(vars(obj).items()):
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn) and (name == "__init__" or not name.startswith("_")):
                            setattr(obj, name, self._method(short, obj, name, raw, fn))
                elif inspect.isfunction(obj) and (
                    not attr.startswith("_") or attr.startswith(_PRIVATE.get(short, ()))
                ):
                    name = f"{short}.{attr}"
                    if inspect.isgeneratorfunction(obj):
                        wrapper = self._generator(name, obj)
                    else:
                        wrapper = self._function(name, obj)
                    _rebind(package, obj, wrapper)
        return self

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        durations = [end - start for _, start, end, _ in self.spans]
        own = list(durations)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= duration
        out: dict = {}
        for (name, _, _, _), total, self_ns in zip(self.spans, durations, own):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total * 1e-9
            entry["self_s"] += self_ns * 1e-9
        return out

    def stage_totals(self, root: str) -> dict:
        """Inclusive seconds of the direct children of `root` spans, by name."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == root}
        out: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent in roots:
                out[name] += (end - start) * 1e-9
        return dict(out)


def _rebind(modules, original, wrapper):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
