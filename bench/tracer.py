"""In-memory span recorder for the traced benchmark run.

The benchmark child wraps each layer's entry function at every
``copulafill`` module binding that refers to it, records one span per call
(name, start, end, parent, trace id, counts taken from the call) and writes
the spans out once the job has ended. :func:`summarize` turns spans into
per-layer calls, counts and self times; a span's self time is its duration
minus the time its child spans cover, so the self times of one job sum to
the duration of its root span.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def _rows(a):
    return np.atleast_2d(np.asarray(a)).shape[0]


def _cells(a, k, r):
    return {"cells": np.size(a[1])}


def _iterations(a, k, r):
    return {"iterations": len(r.fit_trace)}


# (span name, module, attribute, counts(args, kwargs, result) or None).
# An attribute with a dot is a method of a class in the module; two
# functions may share a span name. ``_truncmoments``, ``_lowrank_posterior``
# and ``_mstep_lowrank`` are internal names, wrapped because they are the
# posterior and M-step layer boundaries; a listed name that no longer
# exists fails the traced run loudly.
LAYERS = (
    ("cli.main", "copulafill.cli", "main", None),
    ("data_model.read_csv", "copulafill.data_model", "read_csv",
     lambda a, k, r: {"cells": r.values.size}),
    ("data_model.write_csv", "copulafill.data_model", "write_csv", _cells),
    ("data_model.detect_variable_types", "copulafill.data_model",
     "detect_variable_types", None),
    ("marginals.fit_marginal", "copulafill.marginals", "fit_marginal", None),
    ("marginals.latent_bounds", "copulafill.marginals",
     "Marginal.latent_bounds", _cells),
    ("marginals.from_latent", "copulafill.marginals",
     "Marginal.from_latent", _cells),
    ("latent.batch_posterior", "copulafill.latent", "batch_posterior",
     lambda a, k, r: {"rows": _rows(a[1]), "patterns": len(r.groups)}),
    ("latent.truncmoments", "copulafill.latent", "_truncmoments",
     lambda a, k, r: {"elems": np.broadcast(*a).size}),
    ("copula_em.initial_corr", "copulafill.copula_em", "initial_corr", None),
    ("copula_em.estep", "copulafill.copula_em", "estep",
     lambda a, k, r: {"rows": _rows(a[1])}),
    ("copula_em.mstep", "copulafill.copula_em", "mstep", None),
    ("copula_em.fit", "copulafill.copula_em", "fit_standard", _iterations),
    ("copula_em.fit", "copulafill.copula_em", "fit_minibatch_offline",
     _iterations),
    ("lrgc.fit", "copulafill.lrgc", "fit_lrgc", _iterations),
    ("lrgc.posterior", "copulafill.lrgc", "_lowrank_posterior",
     lambda a, k, r: {"rows": _rows(a[1])}),
    ("lrgc.mstep", "copulafill.lrgc", "_mstep_lowrank", None),
    ("imputer.impute_single", "copulafill.imputer", "impute_single", None),
    ("imputer.confidence_intervals", "copulafill.imputer",
     "confidence_intervals", None),
    ("imputer.impute_multiple", "copulafill.imputer", "impute_multiple",
     lambda a, k, r: {"draws": len(r)}),
    ("streaming.init_stream", "copulafill.streaming", "init_stream", None),
    ("streaming.step", "copulafill.streaming", "step", None),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))

# each of these spans starts a new trace id; other spans inherit their
# parent's, so all spans of one streamed row share an id
TRACE_ROOTS = ("streaming.step",)


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them as JSON."""

    def __init__(self):
        self.spans = []     # [name index, start, end, parent, trace, counts]
        self._stack = []
        self._next_trace = 1

    def install(self) -> None:
        """Replace every binding of each layer function with a wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "copulafill" and m is not None]
        for name, mod_name, attr, counts in LAYERS:
            owner = sys.modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                raise AttributeError(
                    f"traced layer {name!r}: {mod_name}.{attr} does not exist")
            wrapper = self._wrap(SPAN_NAMES.index(name), original, counts)
            setattr(owner, leaf, wrapper)
            if path:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, idx, func, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_trace = SPAN_NAMES[idx] in TRACE_ROOTS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if starts_trace:
                trace = self._next_trace
                self._next_trace += 1
            else:
                trace = spans[parent][4] if parent >= 0 else 0
            span = [idx, clock(), None, parent, trace, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": SPAN_NAMES, "spans": self.spans}, fh)


def summarize(path: str) -> dict:
    """Per-layer totals of a dumped trace.

    Returns ``layers`` (per span name: calls, summed counts, self_s),
    ``root_s`` (summed duration of parentless spans, which equals the sum
    of all self times) and ``nested`` (call counts keyed
    ``"child<ancestor"`` for spans that run inside an ancestor span, where
    the ancestor is a span name or a module such as ``imputer``).
    """
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {name: {"calls": 0, "self_s": 0.0} for name in names}
    root_s = 0.0
    nested = {}
    for i, (idx, start, end, parent, _, counts) in enumerate(spans):
        rec = layers[names[idx]]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            rec[key] = rec.get(key, 0) + value
        if parent < 0:
            root_s += end - start
        ancestors = set()
        while parent >= 0:
            name = names[spans[parent][0]]
            ancestors.update((name, name.split(".")[0]))
            parent = spans[parent][3]
        for anc in ancestors:
            key = f"{names[idx]}<{anc}"
            nested[key] = nested.get(key, 0) + 1
    return {"layers": layers, "root_s": root_s, "nested": nested}
