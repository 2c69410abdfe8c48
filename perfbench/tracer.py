"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps the public functions and methods of every
``positroid`` layer module at every place they are bound, including the
copies that ``from .x import f`` leaves in other modules, so calls between
layers are timed too.  Each call records a span (name, layer, start, end,
parent id) in memory; ``write`` saves them at the end and ``layer_metrics``
turns them into per-layer self times, call counts and work counters.
``uninstall`` restores every binding.  The untraced run never creates a
Tracer, so it runs the library untouched.
"""

import functools
import sys
import time

LAYERS = ("exactmath", "planarmaps", "network", "lediagram", "plabic",
          "permutations", "enumeration", "cli")

# Per-call accessors whose wrappers would cost more than the work they time.
SKIP = {
    "exactmath.rational", "exactmath.format_rational", "exactmath.sort_sign",
    "exactmath.shifted_key", "exactmath.RationalMatrix.column",
    "planarmaps.rev", "planarmaps.DiskMap.anchor", "planarmaps.DiskMap.other_end",
    "planarmaps.DiskMap.dart_vertex", "planarmaps.DiskMap.dart_target",
    "planarmaps.DiskMap.next_dart", "planarmaps.DiskMap.face_left",
    "planarmaps.DiskMap.face_right",
    "network.PlanarDirectedNetwork.weight", "network.PlanarDirectedNetwork.tail",
    "network.PlanarDirectedNetwork.head", "network.PlanarDirectedNetwork.degree",
    "network.PlanarDirectedNetwork.out_edges", "network.PlanarDirectedNetwork.in_edges",
    "network.PlanarDirectedNetwork.sources", "network.PlanarDirectedNetwork.sinks",
    "network.Walk.__init__", "network.Walk.vertices",
    "lediagram.LeTableau.entry", "lediagram.LeDiagram.boxes",
    "plabic.PlabicGraph.degree", "plabic.PlabicGraph.endpoints",
    "plabic.PlabicGraph.other_end", "plabic.PlabicGraph.incident",
    "plabic.PlabicGraph.internal_vertices", "plabic.face_key",
    "permutations.DecoratedPermutation.inverse", "permutations.DecoratedPermutation.is_loop",
    "permutations.shifted_less", "permutations.cyclic_interval",
}

# Per-layer counters: metric name -> span name it counts.
CALL_COUNTERS = {
    "exactmath.minors": "exactmath.maximal_minor",
    "network.entries": "network.boundary_measurement",
    "network.networks_built": "network.PlanarDirectedNetwork.__init__",
    "lediagram.hook_networks": "lediagram.gamma_network",
    "plabic.moves": "plabic.apply_move",
    "plabic.reductions": "plabic.apply_reduction",
    "plabic.graphs_built": "plabic.PlabicGraph.__init__",
    "planarmaps.maps_built": "planarmaps.DiskMap.__init__",
    "planarmaps.face_traces": "planarmaps.DiskMap.faces",
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent id]
        self.stack = []
        self.counts = {"exactmath.max_bits": 0, "plabic.orientations": 0,
                       "plabic.orientations_useful": 0, "plabic.square_moves": 0,
                       "permutations.covers": 0}
        self._restore = []
        self._observe = self._observers()

    # -- installing and removing the wrappers -----------------------------------------

    def install(self):
        wrapped = {}           # id(original) -> wrapper, shared by every binding
        for layer in LAYERS:
            mod = sys.modules["positroid." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrapper(obj, f"{layer}.{attr}", layer)
        for name, mod in list(sys.modules.items()):
            if name != "positroid" and not name.startswith("positroid."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)] is not None:
                    self._set(mod, attr, obj, wrapped[id(obj)])

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                wrapper = self._wrapper(raw.__func__, name, layer)
                if wrapper is not None:
                    self._set(cls, attr, raw, classmethod(wrapper))
            elif isinstance(raw, staticmethod):
                wrapper = self._wrapper(raw.__func__, name, layer)
                if wrapper is not None:
                    self._set(cls, attr, raw, staticmethod(wrapper))
            elif callable(raw):
                wrapper = self._wrapper(raw, name, layer)
                if wrapper is not None:
                    self._set(cls, attr, raw, wrapper)

    def _set(self, owner, attr, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrapper(self, fn, name, layer):
        if name in SKIP:
            return None
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- counters taken from return values ------------------------------------------

    def _observers(self):
        counts = self.counts

        def det(x):
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            counts["exactmath.max_bits"] = max(counts["exactmath.max_bits"], bits)

        def orientations(result):
            counts["plabic.orientations"] += len(result)

        def matroid(M):
            counts["plabic.orientations_useful"] += len(M.bases)

        def measure_plabic(_):
            counts["plabic.orientations_useful"] += 1

        def reduce_graph(result):
            counts["plabic.square_moves"] += sum(1 for step in result[2] if step[0] == "M1")

        def covers(result):
            counts["permutations.covers"] += len(result)

        return {"exactmath.det": det, "plabic.perfect_orientations": orientations,
                "plabic.matroid": matroid, "plabic.measure_plabic": measure_plabic,
                "plabic.reduce_graph": reduce_graph, "permutations.covers": covers}

    # -- results ------------------------------------------------------------------------

    def layer_metrics(self, wall):
        """Per-layer self time as a share of `wall`, calls, and the work counters.

        A layer's self time is the time of its spans minus the time of their
        child spans.  It is reported as a share of the traced wall time, so a
        layer that a workload never calls reads 0 rather than a time.
        """
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = 0.0
            out[f"{layer}.calls"] = 0
        by_name = {}
        for (name, layer, start, end, parent), inner in zip(self.spans, child):
            out[f"{layer}.self_frac"] += (end - start - inner) / wall
            out[f"{layer}.calls"] += 1
            by_name[name] = by_name.get(name, 0) + 1
        for metric, name in CALL_COUNTERS.items():
            out[metric] = by_name.get(name, 0)
        out.update(self.counts)
        useful, total = out.pop("plabic.orientations_useful"), out["plabic.orientations"]
        out["plabic.orientations_useful_ratio"] = useful / total if total else 0.0
        return out, useful

    def write(self, path):
        """Save the spans as CSV: id, name, layer, start, end, parent id."""
        with open(path, "w") as fh:
            fh.write("id,name,layer,start_s,end_s,parent\n")
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{layer},{start:.9f},{end:.9f},{parent}\n")
