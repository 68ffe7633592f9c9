"""Span tracing of retroq's public functions, installed from outside the package.

`Tracer.install(package)` replaces every public function of each layer
module with a wrapper that records a span (name, start, end, parent). It
patches the defining module's attribute and every `from .x import f`
binding in the other modules, so `scenarios.propagate_forward` and
`trajectories.abl_distribution` are traced like `dynamics.propagate_forward`
and `retrodiction.abl_distribution`. Scenario catalog entries get one span
named after the scenario. Nothing inside `src/` changes; `uninstall`
restores the originals.

Spans live in flat in-memory arrays until the benchmark writes them out at
exit. A span's self time is its duration minus the part of that interval
its child spans cover (`self_times`).

Run `python3 perfbench/spans.py` to check the self-time arithmetic on
synthetic spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import inspect
import json
import time
from array import array

LAYERS = (
    "_accel", "trajectories", "dynamics", "thermo", "retrodiction",
    "algebra", "channels", "classical", "scenarios", "cli",
)

# Elementwise algebra helpers run hundreds of thousands of times per pass
# and cost less than the wrapper itself; tracing them would measure the
# tracer. Their time stays in their callers' self time.
UNTRACED = {
    "algebra": {"dagger", "asoperator", "hermitian_part", "hermiticity_defect"},
}
# In cli only the entry point is traced, so `cli.main` self time is the
# CLI's own argument, config, report and manifest handling.
ONLY = {"cli": {"main"}}
METHODS = {"channels": ("Instrument.apply",)}


class Tracer:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []  # interned span names
        self._ids = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # per-span work count (steps, points, ...)
        self._stack = []
        self._undo = []

    def __len__(self):
        return len(self.name_idx)

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, idx):
        i = len(self.name_idx)
        self.name_idx.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, work=None):
        """Return fn wrapped in a span; work(bound_args, result) -> count."""
        idx = self._intern(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if work is not None:
                self.work[i] = float(work(sig.bind(*args, **kwargs).arguments, out))
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around benchmark code."""
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def install(self, package, work=None):
        """Wrap the public functions of every layer module of `package`.

        work maps a span name to a work-count callback for that function.
        """
        work = work or {}
        mods = {name: getattr(package, name) for name in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        catalog = getattr(mods["scenarios"], "SCENARIOS", {})
        scenario_names = {id(entry.func): f"scenarios.{key}" for key, entry in catalog.items()}
        for layer, mod in mods.items():
            # Span and metric names start with a letter: `_accel` spans are `accel.*`.
            prefix = layer.lstrip("_")
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or attr in UNTRACED.get(layer, ()):
                    continue
                if layer in ONLY and attr not in ONLY[layer]:
                    continue
                name = scenario_names.get(id(obj), f"{prefix}.{attr}")
                wrapped[id(obj)] = self.wrap(name, obj, work.get(name))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(f"{prefix}.{qual}", orig, work.get(f"{prefix}.{qual}")))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for key, entry in list(catalog.items()):
            if id(entry.func) in wrapped:
                self._undo.append((catalog, key, entry))
                catalog[key] = dataclasses.replace(entry, func=wrapped[id(entry.func)])

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def self_times(self, lo=0, hi=None):
        return self_times(self.start, self.end, self.parent, lo, len(self) if hi is None else hi)

    def dump(self, path):
        """Write every span as gzipped JSON columns (names resolved through `names`)."""
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.name_idx),
                    "parent": list(self.parent),
                    "start": list(self.start),
                    "end": list(self.end),
                    "work": list(self.work),
                },
                fh,
            )


def self_times(start, end, parent, lo, hi):
    """Self time of spans lo..hi-1: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    kids = {}
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            kids.setdefault(p, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(lo, hi)]
    for p, ivs in kids.items():
        a0, b0 = start[p], end[p]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted(ivs):
            a, b = max(a, a0), min(b, b0)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p - lo] -= covered
    return out


def _expect(ok, what):
    if not ok:
        raise AssertionError(what)


def selftest():
    """Check self_times on synthetic spans; raises AssertionError on a mismatch."""
    # 0 root [0,10]; 1 child [1,4]; 2 grandchild [2,3]; 3 child [5,9];
    # 4 child [8,12] overlaps 3 and sticks out of the root.
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = self_times(start, end, parent, 0, 5)
    want = [10.0 - 3.0 - 5.0, 2.0, 1.0, 4.0, 4.0]
    _expect(got == want, f"nested spans: got {got}, want {want}")
    # A window that starts mid-list treats spans whose parent lies before it as roots.
    got = self_times(start, end, parent, 1, 3)
    _expect(got == [2.0, 1.0], f"windowed spans: got {got}")

    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def outer():
        leaf()
        leaf()
        time.sleep(0.002)

    leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", outer)
    with tracer.span("root"):
        outer()
    st = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    _expect(abs(sum(st) - total) < 1e-9, f"self times sum to {sum(st)}, root lasted {total}")
    _expect(min(st) >= 0.0, f"negative self time in {st}")
    order = [tracer.names[i] for i in tracer.name_idx]
    _expect(order == ["root", "outer", "leaf", "leaf"], f"span order {order}")


if __name__ == "__main__":
    selftest()
    print("span self-time self-test passed")
