"""In-memory span tracer that wraps dpboost's public functions from outside.

``Tracer.install()`` swaps every public module-level function of the layer
modules (and the ``predict`` methods listed in ``METHODS``) for a wrapper that
records a span: name, start, end and the index of the enclosing span. It
replaces the attribute in every dpboost module that holds the original
object, so calls through imported names (``boosting.laplace``,
``harness.fit_logreg``, ...) are seen too. ``uninstall()`` puts the originals
back. Nothing inside ``src/`` is edited.

Pool workers forked while the tracer is installed inherit the wrappers. A
worker keeps its own spans and appends them to ``spans-<pid>.jsonl`` in the
tracer's directory each time its outermost span (and that span's hook) ends; ``collect_children``
merges those files into the driver's span list.

Spans are kept as lists ``[name, start, end, parent, attrs]``; ``attrs``
holds values taken from return values (rounds per fit, solver convergence).
"""

from __future__ import annotations

import glob
import importlib
import inspect
import json
import math
import os
import time

import numpy as np

LAYERS = ("data", "baselines", "boosting", "noise", "model", "harness", "toy")
METHODS = (
    ("model", "LinearClassifier", "predict"),
    ("model", "Ensemble", "predict"),
)
CHECK_SPAN = "trace.converged_check"


class Tracer:
    def __init__(self, directory: str):
        self.directory = directory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._child = False
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- recording ---------------------------------------------------------
    def _enter_process(self) -> None:
        if os.getpid() != self._pid:  # first span in a forked pool worker
            self._pid = os.getpid()
            self._child = True
            self.spans = []
            self._stack = []

    def _open(self, name: str) -> int:
        self._enter_process()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _flush_child(self) -> None:
        """In a pool worker, write out the spans once the outermost one ended."""
        if not self._child or self._stack or not self.spans:
            return
        path = os.path.join(self.directory, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect_children(self) -> None:
        """Merge the span batches written by pool workers."""
        for path in sorted(glob.glob(os.path.join(self.directory, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    offset = len(self.spans)
                    for name, start, end, parent, attrs in json.loads(line):
                        self.spans.append(
                            [name, start, end, None if parent is None else parent + offset, attrs]
                        )
            os.remove(path)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                tracer._flush_child()
                raise
            tracer._close(idx)
            if after is not None:
                after(tracer, idx, fn, args, kwargs, result)
            tracer._flush_child()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"dpboost.{layer}") for layer in LAYERS}
        all_modules = list(modules.values()) + [importlib.import_module("dpboost")]
        replacements: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                replacements[id(obj)] = self._wrap(name, obj)
        for mod in all_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replacements[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._originals[f"{layer}.{cls_name}.{method}"] = original
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore = []

    def original(self, name: str):
        return self._originals[name]


# -- return-value hooks -------------------------------------------------------
def _after_fit(tracer: Tracer, idx, fn, args, kwargs, result) -> None:
    """Record rounds and public rounds of a boosting fit."""
    _, records = result
    tracer.spans[idx][4] = {
        "rounds": len(records),
        "public_rounds": sum(1 for r in records if r.chosen == "public"),
    }


def _after_weighted_fit(tracer: Tracer, idx, fn, args, kwargs, result) -> None:
    """Recompute the gradient norm at the returned classifier.

    Runs in its own span so it is not charged to the fit or to the caller's
    self time, and calls the unwrapped gradient so it is not counted as a
    solver evaluation.
    """
    check = tracer._open(CHECK_SPAN)
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        ds, hyper = bound.arguments["ds"], bound.arguments["hyper"]
        weights = bound.arguments["weights"]
        w = np.ones(ds.n) if weights is None else np.asarray(weights, dtype=np.float64)
        grad = tracer.original("baselines.weighted_logistic_grad")
        g_theta, g_b = grad(
            result.coeffs, result.intercept, ds.X[:, list(result.cols)],
            ds.y.astype(np.float64), w, hyper.lam,
        )
        norm = math.hypot(float(np.linalg.norm(g_theta)), g_b)
        tracer.spans[idx][4] = {"grad_norm": norm, "converged": norm <= hyper.tol}
    finally:
        tracer._close(check)


def _after_grad(tracer: Tracer, idx, fn, args, kwargs, result) -> None:
    """Record n*d of the gradient's matrix, for the computed flop count."""
    X = args[2] if len(args) > 2 else kwargs["X"]
    tracer.spans[idx][4] = {"nd": X.shape[0] * X.shape[1]}


_AFTER = {
    "boosting.brc_fit": _after_fit,
    "boosting.brc_fit_all_private": _after_fit,
    "baselines.fit_logreg_weighted": _after_weighted_fit,
    "baselines.weighted_logistic_grad": _after_grad,
}


# -- aggregation ----------------------------------------------------------------
class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i, span in enumerate(spans):
            if span[3] is not None:
                self.children.setdefault(span[3], []).append(i)

    def _ids(self, names) -> list[int]:
        names = set(names)
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def _outermost(self, names) -> list[int]:
        names = set(names)
        out = []
        for i in self._ids(names):
            p = self.spans[i][3]
            while p is not None and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p is None:
                out.append(i)
        return out

    def count(self, *names) -> int:
        return len(self._ids(names))

    def busy_s(self, *names) -> float:
        """Summed duration of the outermost spans among ``names``."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._outermost(names))

    def self_s(self, *names) -> float:
        """Busy time of ``names`` minus the time their child spans cover."""
        total = 0.0
        for i in self._outermost(names):
            start, end = self.spans[i][1], self.spans[i][2]
            covered = sum(self.spans[c][2] - self.spans[c][1] for c in self.children.get(i, ()))
            total += (end - start) - covered
        return total

    def attrs(self, name) -> list[dict]:
        return [self.spans[i][4] or {} for i in self._ids([name])]
