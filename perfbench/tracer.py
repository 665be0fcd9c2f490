"""Layer-boundary spans for the hyperk3 benchmark, installed from outside the package.

``install`` replaces every public module-level function of every hyperk3
module with a recording wrapper, under each name a module binds it to: a
function imported by name (``from ..linalg import bareiss_det``) is wrapped
in the importing module too, so the call is seen whichever module makes it.
A span is (name, start, end, parent span, item); spans stay in memory and
are written out once, when the run ends.  Self time is a span's duration
minus the durations of the spans whose parent it is.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

LAYERS = ("search", "k3class", "hyplattice", "clusters", "polyring", "linalg",
          "picard", "siegel", "numfield", "cli")

# Values counted from a function's result, as (metric suffix, probe).
PROBES = {
    "picard.enumerate_root_system": ("roots", len),
    "picard.bring_back": ("steps", lambda r: len(r.word)),
    "k3class.k3_certificate_explain": ("accepted", lambda r: int(r[0] is not None)),
    "search.scan_deg22": ("entries", len),
}


def layer_of(module_name: str) -> str:
    return module_name.split(".")[1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.item: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack = [-1]
        self.current_item = -1
        self.probes: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        stack, start, end = self.stack, self.start, self.end
        name_id, parent, item = self.name_id, self.parent, self.item

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(ix)
            parent.append(stack[-1])
            item.append(self.current_item)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if probe is not None:
                key = f"{name}.{probe[0]}"
                self.probes[key] = self.probes.get(key, 0) + probe[1](out)
            return out

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the public functions of every hyperk3 module where they are bound."""
        import hyperk3

        modules = [hyperk3] + [importlib.import_module(m.name) for m in
                               pkgutil.walk_packages(hyperk3.__path__, "hyperk3.")]
        wrapped = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(inspect.unwrap(obj))
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer_of(mod.__name__)}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[sid] - self.start[sid]
        return out

    def layer_inclusive(self) -> dict[str, float]:
        """Time inside each layer, counting a span only when no ancestor is in its layer."""
        bit = {layer: 1 << j for j, layer in enumerate(LAYERS)}
        name_bit = [bit[name.split(".")[0]] for name in self.names]
        out = dict.fromkeys(LAYERS, 0.0)
        mask = array("q", bytes(8 * len(self.start)))
        for sid, (ix, p) in enumerate(zip(self.name_id, self.parent)):
            b = name_bit[ix]
            above = mask[p] if p >= 0 else 0
            mask[sid] = above | b
            if not above & b:
                out[self.names[ix].split(".")[0]] += self.end[sid] - self.start[sid]
        return out

    def summary(self) -> dict[str, float]:
        """calls, self_s and incl_s per function and per layer, plus the probe counts."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for ix, st in zip(self.name_id, self.self_times()):
            calls[ix] += 1
            self_s[ix] += st
        out: dict[str, float] = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "self_s")}
        for layer, incl in self.layer_inclusive().items():
            out[f"{layer}.incl_s"] = incl
        for name, c, s in zip(self.names, calls, self_s):
            layer = name.split(".")[0]
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
            out[f"{layer}.calls"] += c
            out[f"{layer}.self_s"] += s
        out.update(self.probes)
        out["trace.spans"] = len(self.start)
        return out

    def children_calls(self, parent_layer: str, child: str) -> int:
        """Calls of ``child`` made directly from a span of ``parent_layer``."""
        child_ix = self.names.index(child)
        return sum(1 for ix, p in zip(self.name_id, self.parent)
                   if ix == child_ix and p >= 0
                   and self.names[self.name_id[p]].split(".")[0] == parent_layer)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=3) as f:
            f.write("span\tparent\titem\tname\tstart\tend\n")
            for sid, (ix, p, it, s, e) in enumerate(zip(self.name_id, self.parent, self.item,
                                                        self.start, self.end)):
                f.write(f"{sid}\t{p}\t{it}\t{self.names[ix]}\t{s:.9f}\t{e:.9f}\n")
