"""Span recorder for the traced benchmark run, and the layer table.

The recorder keeps spans in memory: group, function name, start, end,
parent span, work counters and an optional request key. A layer's self
time is its span's duration minus the part of that interval its child
spans cover. Bookkeeping the recorder does itself (hashing a request,
sizing an output file) runs in spans of the group ``trace``, so it is not
charged to any layer.

`install` wraps the public entry points of each package layer in every
``coulombchain`` module namespace that holds them, so calls between
modules are seen as well as the benchmark's own calls. The package files
are never changed; `Recorder.unpatch_all` restores the original
functions.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("linear_modes", "ramsey", "spectral", "zigzag", "asymptotics",
           "cli")


@dataclass
class Span:
    group: str
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: bool = False
    work: dict = field(default_factory=dict)   # counters, summed per group
    key: object = None                          # request identity
    weight: float = 0.0                         # work share of this request


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, group: str, name: str | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(group, name or group, self.clock(), parent)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, group: str, before=None, after=None):
        """`fn` recorded as a span of `group`.

        before(args) and after(args, result) receive the bound arguments
        (defaults applied) and return span fields: counters under "work",
        and optionally "key" and "weight".
        """
        sig = inspect.signature(fn)

        def bookkeep(hook, *extra) -> dict:
            with self.span("trace", "bookkeeping"):
                return hook(*extra)

        def apply(sp: Span, info: dict) -> None:
            sp.work.update(info.get("work", {}))
            if "key" in info:
                sp.key, sp.weight = info["key"], info["weight"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before or after:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            pre = bookkeep(before, bound.arguments) if before else {}
            with self.span(group, fn.__name__) as sp:
                apply(sp, pre)
                result = fn(*args, **kwargs)
            if after:
                apply(sp, bookkeep(after, bound.arguments, result))
            return result

        return wrapper

    def patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unpatch_all(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    # -------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: list[list[Span]] = [[] for _ in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append(sp)
        out = []
        for sp, kids in zip(self.spans, children):
            covered, reach = 0.0, sp.start
            for k in sorted(kids, key=lambda s: s.start):
                lo, hi = max(k.start, reach), min(k.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(sp.end - sp.start - covered)
        return out

    def dump(self) -> list:
        """Spans as [group, name, start, end, parent, self_s] rows, times in
        seconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[sp.group, sp.name, round(sp.start - t0, 7),
                 round(sp.end - t0, 7), sp.parent, round(self_s, 7)]
                for sp, self_s in zip(self.spans, self.self_times())]

    def totals(self) -> dict:
        """Per group: self_s, summed counters, errors and repeat_frac.

        repeat_frac is the share of keyed work whose key (an identical
        request) was already seen earlier in the run; 0 without keys.
        """
        out: dict = {}
        seen: set = set()
        for sp, self_s in zip(self.spans, self.self_times()):
            g = out.setdefault(sp.group, {"self_s": 0.0, "errors": 0,
                                          "work": {}, "keyed": 0.0,
                                          "repeated": 0.0})
            g["self_s"] += self_s
            g["errors"] += sp.error
            for name, value in sp.work.items():
                g["work"][name] = g["work"].get(name, 0) + value
            if sp.key is not None:
                g["keyed"] += sp.weight
                if (sp.group, sp.key) in seen:
                    g["repeated"] += sp.weight
                seen.add((sp.group, sp.key))
        for g in out.values():
            g["repeat_frac"] = g["repeated"] / g["keyed"] if g["keyed"] else 0.0
        return out


# ----------------------------------------------------------- the layer table


def _digest(*arrays) -> str:
    import numpy as np
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
        h.update(repr(a.shape).encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _size(x) -> int:
    import numpy as np
    return int(np.size(x))


def _dispersion(a):
    return {"work": {"terms": _size(a["k"]) * (a["N"] // 2)}}


def _amplitudes(a):
    p = a["params"]
    return {"work": {"calls": 1}, "weight": p.N,
            "key": (p.N, p.nu_t, p.eta_c, p.theta, a["probe_site"])}


def _trig_sum(a):
    n = _size(a["t"]) * len(a["omega"])
    return {"work": {"calls": 1, "mode_samples": n}, "weight": n,
            "key": (a["kind"], _digest(a["t"], a["omega"], a["weight"]))}


def _csv_written(a, result):
    with open(a["path"], "rb") as fh:
        data = fh.read()
    return {"work": {"bytes": len(data),
                     "cells": (data.count(b"\n") - 1) * len(a["header"])}}


# (module, function) -> (group, before, after). Functions left out run as
# part of whichever listed function (or the benchmark body) calls them.
LAYERS = {
    ("linear_modes", "dispersion_transverse"):
        ("linear_modes.dispersion", _dispersion, None),
    ("linear_modes", "dispersion_axial"):
        ("linear_modes.dispersion", _dispersion, None),
    ("linear_modes", "mode_matrix"):
        ("linear_modes.mode_matrix",
         lambda a: {"work": {"bytes": 8 * a["N"] ** 2}}, None),
    ("linear_modes", "group_velocity"):
        ("linear_modes.group_velocity", None, None),
    ("ramsey", "linear_chain_amplitudes"):
        ("ramsey.amplitudes", _amplitudes, None),
    ("ramsey", "weighted_trig_sum"): ("ramsey.trig_sum", _trig_sum, None),
    ("ramsey", "evaluate_trace"): ("ramsey.trace", None, None),
    ("ramsey", "exponent_A"): ("ramsey.trace", None, None),
    ("ramsey", "exponent_A_thermal"): ("ramsey.trace", None, None),
    ("ramsey", "overlap"): ("ramsey.trace", None, None),
    ("ramsey", "visibility"): ("ramsey.trace", None, None),
    ("spectral", "fourier_spectrum"):
        ("spectral.fft",
         lambda a: {"work": {"samples": _size(a["trace"].t)}}, None),
    ("spectral", "find_peaks"): ("spectral.peaks", None, None),
    ("zigzag", "zigzag_equilibrium"):
        ("zigzag.equilibrium", lambda a: {"work": {"calls": 1}}, None),
    ("zigzag", "zigzag_spectrum"):
        ("zigzag.spectrum",
         lambda a: {"work": {"dim3_sum": (2 * a["params"].N) ** 3}}, None),
    ("zigzag", "classify_zigzag_modes"):
        ("zigzag.classify", None,
         lambda a, result: {"work": {"modes": len(result)}}),
    ("asymptotics", "find_revival_burst"):
        ("asymptotics.revival_burst",
         lambda a: {"work": {"samples": _size(a["t"])}}, None),
    ("asymptotics", "gamma_transition_scan"): ("asymptotics.scan", None, None),
    ("asymptotics", "gamma_derivative_scan"): ("asymptotics.scan", None, None),
    ("asymptotics", "cusp_secant_slopes"): ("asymptotics.scan", None, None),
    ("asymptotics", "revival_time"): ("asymptotics.analytic", None, None),
    ("asymptotics", "a_infinity_analytic"):
        ("asymptotics.analytic", None, None),
    ("asymptotics", "b_analytic"): ("asymptotics.analytic", None, None),
    ("asymptotics", "bessel_Y0"): ("asymptotics.analytic", None, None),
    ("cli", "emit_csv"): ("cli.emit_csv", None, _csv_written),
    ("cli", "run"): ("cli.glue", None, None),
}

# Metrics reported per group: self_s and repeat_frac from the span totals,
# the rest from the summed work counters.
_GROUP_METRICS = {
    "linear_modes.dispersion": ("self_s", "terms"),
    "linear_modes.mode_matrix": ("self_s", "bytes"),
    "linear_modes.group_velocity": ("self_s",),
    "ramsey.amplitudes": ("self_s", "calls", "repeat_frac"),
    "ramsey.trig_sum": ("self_s", "calls", "mode_samples", "repeat_frac"),
    "ramsey.trace": ("self_s",),
    "spectral.fft": ("self_s", "samples"),
    "spectral.peaks": ("self_s",),
    "zigzag.equilibrium": ("self_s", "calls"),
    "zigzag.spectrum": ("self_s", "dim3_sum"),
    "zigzag.classify": ("self_s", "modes"),
    "asymptotics.revival_burst": ("self_s", "samples"),
    "asymptotics.scan": ("self_s",),
    "asymptotics.analytic": ("self_s",),
    "cli.emit_csv": ("self_s", "cells", "bytes"),
    "cli.glue": ("self_s",),
    "workload": ("self_s",),
    "trace": ("self_s",),
}


def install(rec: Recorder) -> None:
    """Wrap every LAYERS entry in each coulombchain namespace that holds it."""
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "coulombchain" or name.startswith("coulombchain.")]
    for (module, fname), (group, before, after) in LAYERS.items():
        orig = getattr(importlib.import_module(f"coulombchain.{module}"), fname)
        wrapper = rec.wrap(orig, group, before, after)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    rec.patch(ns, attr, wrapper)


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metric values of one traced run (absent layers read 0)."""
    totals = rec.totals()
    out = {}
    for group, names in _GROUP_METRICS.items():
        g = totals.get(group, {"self_s": 0.0, "work": {}, "repeat_frac": 0.0})
        for name in names:
            if name in ("self_s", "repeat_frac"):
                out[f"{group}.{name}"] = g[name]
            else:
                out[f"{group}.{name}"] = g["work"].get(name, 0)
    trig = totals.get("ramsey.trig_sum")
    out["ramsey.trig_sum.mode_samples_per_s"] = (
        trig["work"]["mode_samples"] / trig["self_s"]
        if trig and trig["self_s"] > 0 else 0.0)
    for module in MODULES:
        out[f"{module}.errors"] = sum(g["errors"] for name, g in totals.items()
                                      if name.split(".")[0] == module)
    return out

