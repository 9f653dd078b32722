"""Per-layer spans around persax's public functions, installed from outside.

``Tracer.install()`` replaces each traced function or method with a wrapper,
in every persax module namespace that holds it, so calls between modules
are seen without editing the package.  A span is (name, start, end, parent);
the layer is the module name.  Self time is a span's duration minus the time
covered by its child spans, accumulated exactly as spans close.  Spans are
kept in memory up to ``SPAN_CAP`` per process; beyond that they are only
counted, while calls and self times stay exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

SPAN_CAP = 20_000

# layer name -> (module, qualified attribute) for every traced entry point
LAYERS = {
    "formats.parse": ("formats", ["parse_filtration", "parse_pair", "parse_any",
                                  "parse_triple", "parse_cover", "parse_map",
                                  "parse_filtration_text", "parse_sections_text",
                                  "parse_pair_text"]),
    "filtration.validate": ("filtration", ["FilteredSet.__init__"]),
    "filtration.complex_at": ("filtration", ["complex_at"]),
    "linalg.chain_space": ("linalg", ["chain_space"]),
    "linalg.boundary_matrix": ("linalg", ["boundary_matrix"]),
    "linalg.chain_map_matrix": ("linalg", ["chain_map_matrix"]),
    "linalg.matrix_init": ("linalg", ["Matrix.__init__"]),
    "linalg.rref": ("linalg", ["Matrix.rref"]),
    "linalg.kernel": ("linalg", ["kernel"]),
    "linalg.intersect": ("linalg", ["Subspace.intersect"]),
    "linalg.complement": ("linalg", ["Subspace.complement_in"]),
    "linalg.solve": ("linalg", ["Matrix.solve", "Matrix.solve_matrix"]),
    "linalg.matmul": ("linalg", ["Matrix.__mul__"]),
    "homology.homology": ("homology", ["homology"]),
    "homology.coords_of": ("homology", ["HomologyGroup.coords_of"]),
    "homology.induced_map": ("homology", ["induced_map"]),
    "homology.connecting": ("homology", ["connecting"]),
    "homology.betti_grid": ("homology", ["betti_grid"]),
    "barcode.barcode": ("barcode", ["barcode"]),
    "barcode.cone_off_subset": ("barcode", ["cone_off_subset"]),
    "barcode.bars_alive": ("barcode", ["bars_alive"]),
    "sequences.build": ("sequences", ["les_pair", "les_triple", "mayer_vietoris",
                                      "triad_sequence", "reduced_les_pair"]),
    "sequences.check_exact": ("sequences", ["check_exact"]),
    "sequences.are_contiguous": ("sequences", ["are_contiguous"]),
    "skeletal.chain_group": ("skeletal", ["skeletal_chain_group"]),
    "skeletal.boundary": ("skeletal", ["skeletal_boundary"]),
    "skeletal.homology": ("skeletal", ["skeletal_homology"]),
    "skeletal.direct_to_skeletal": ("skeletal", ["direct_to_skeletal"]),
    "skeletal.coords_of": ("skeletal", ["SkeletalHomology.coords_of"]),
    "fuzz.generate": ("fuzz", ["random_filtration", "restrict_to_vertices",
                               "random_subset_of", "random_pair", "random_triple",
                               "random_cover", "random_excision_parts",
                               "random_map_to_cone", "random_contiguous_pair",
                               "random_composable_maps", "random_pair_map"]),
    "cli.main": ("cli", ["main"]),
}

# counters measured at a boundary: layer -> (counter name, work of one call)
WORK = {
    "linalg.rref": ("linalg.rref.cells", lambda args: args[0].nrows * args[0].ncols),
    "barcode.barcode": ("barcode.columns", lambda args: len(args[0].entries)),
}

# cache counters read when the process ends: metric -> (module, lru function)
MISSES = {
    "linalg.boundary_matrix.misses": ("linalg", "boundary_matrix"),
    "homology.homology.misses": ("homology", "_homology_cached"),
}


def persax_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "persax" or name.startswith("persax."))]


def lru_caches():
    """Every lru_cache object held by a persax module, each once."""
    seen = {}
    for mod in persax_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


class Tracer:
    """Spans, calls, self times and counters of one process."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        for module, _ in LAYERS.values():
            importlib.import_module("persax." + module)
        self._modules = {m.__name__: m for m in persax_modules()}
        # collected before install(), since a wrapper hides the cache
        self.caches = lru_caches()
        self._misses = {metric: getattr(self._modules["persax." + module], attr)
                        for metric, (module, attr) in MISSES.items()}

    def _wrap(self, name, fn, work=None, naming=None):
        """A wrapper that records one span per call of ``fn``.

        ``naming(args)`` gives the span name per call when it depends on the
        arguments.  ``work`` adds a per-call count; on an lru_cache it is
        added only when the call was a miss.
        """
        stack = self._stack
        clock = time.perf_counter_ns
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = naming(args) if naming else name
            parent = stack[-1] if stack else None
            sid = self._open(span, parent)
            frame = [span, 0, sid]
            stack.append(frame)
            before = fn.cache_info().misses if cached and work else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, parent, start, end)
                if work and (not cached or fn.cache_info().misses > before):
                    key, count = work
                    self.counters[key] = self.counters.get(key, 0) + count(args)

        return wrapper

    def _open(self, span, parent):
        if parent is None or parent[0] != span:
            self.calls[span] = self.calls.get(span, 0) + 1
        if len(self.span_start) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self.span_name.append(self.names.setdefault(span, len(self.names)))
        self.span_parent.append(parent[2] if parent else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        return len(self.span_start) - 1

    def _close(self, frame, parent, start, end):
        span, child_ns, sid = frame
        took = end - start
        self.self_ns[span] = self.self_ns.get(span, 0) + took - child_ns
        self.total_ns[span] = self.total_ns.get(span, 0) + took
        if parent is not None:
            parent[1] += took
        if sid >= 0:
            self.span_start[sid] = start
            self.span_end[sid] = end

    def install(self) -> None:
        """Wrap every entry point of LAYERS and verify_axiom, once."""
        for layer, (module, attrs) in LAYERS.items():
            for attr in attrs:
                self._replace(self._modules["persax." + module], attr,
                              lambda fn, layer=layer: self._wrap(layer, fn, WORK.get(layer)))
        self._replace(self._modules["persax.axioms"], "verify_axiom",
                      lambda fn: self._wrap(None, fn, naming=lambda args: f"axioms.{args[0]}"))

    def _replace(self, module, attr, make):
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, member, make(vars(owner)[member]))
            return
        original = getattr(module, member)
        wrapper = make(original)
        for mod in persax_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def cache_entries(self) -> int:
        """Entries held by every lru_cache in persax right now."""
        return sum(c.cache_info().currsize for c in self.caches)

    def report(self) -> dict:
        """Calls, self and total seconds per span name, counters and misses."""
        misses = {metric: fn.cache_info().misses for metric, fn in self._misses.items()}
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "counters": {**self.counters, **misses},
        }

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "dropped": self.dropped,
        }
