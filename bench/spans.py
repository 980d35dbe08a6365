"""Outside-in tracing of relrep's public functions.

The benchmark wraps each listed function from its own files; nothing in
``src/`` changes.  Every wrapped call records a span (name, start, end,
parent span, request id).  Spans are kept in flat in-memory arrays and
written out once, when the traced run ends.  Self time is folded in online:
a span's self time is its duration minus the time its child spans cover.
Time a request spends outside every wrapped function is the self time of the
request's own root span, reported as ``unwrapped.self_s``, so the layer self
times plus that glue add up to the traced wall time exactly.  Span times are
raw wall clock (the traced replay is for shares, not for comparison).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (layer, metric name, module, attribute).  An attribute "Class.method" is
# patched on the class; a plain function is rebound in every relrep module
# that imported it, since `from .rep import hom_space` copies the binding.
TARGETS = [
    ("exact_linalg", "Matrix.new", "relrep.exact_linalg", "Matrix.__init__"),
    ("exact_linalg", "rref", "relrep.exact_linalg", "Matrix.rref"),
    ("exact_linalg", "matmul", "relrep.exact_linalg", "Matrix.__matmul__"),
    ("exact_linalg", "solve_right", "relrep.exact_linalg", "Matrix.solve_right"),
    ("exact_linalg", "kernel_basis", "relrep.exact_linalg", "Matrix.kernel_basis"),
    ("path_algebra", "build", "relrep.path_algebra", "AlgebraPresentation.__init__"),
    ("rep", "hom_space", "relrep.rep", "hom_space"),
    ("rep", "is_isomorphic", "relrep.rep", "is_isomorphic"),
    ("rep", "kernel", "relrep.rep", "kernel"),
    ("rep", "cokernel", "relrep.rep", "cokernel"),
    ("rep", "direct_sum", "relrep.rep", "direct_sum"),
    ("homology", "projective_cover", "relrep.homology", "projective_cover"),
    ("homology", "injective_hull", "relrep.homology", "injective_hull"),
    ("homology", "ext_dim", "relrep.homology", "ext_dim"),
    ("homology", "ext1_space", "relrep.homology", "ext1_space"),
    ("homology", "dtr", "relrep.homology", "dtr"),
    ("homology", "minimal_right_approximation", "relrep.homology", "minimal_right_approximation"),
    ("homology", "in_add", "relrep.homology", "in_add"),
    ("relhom", "ext_F_dim", "relrep.relhom", "ext_F_dim"),
    ("relhom", "is_F_exact", "relrep.relhom", "is_F_exact"),
    ("relhom", "F_resolution", "relrep.relhom", "F_resolution"),
    ("relhom", "F_coresolution", "relrep.relhom", "F_coresolution"),
    ("relhom", "gldim_F_le", "relrep.relhom", "gldim_F_le"),
    ("endo", "end_algebra", "relrep.endo", "end_algebra"),
    ("endo", "radical", "relrep.endo", "radical"),
    ("endo", "gldim_le", "relrep.endo", "gldim_le"),
    ("endo", "sc_pd_le", "relrep.endo", "sc_pd_le"),
    ("endo", "sc_ext_dims", "relrep.endo", "sc_ext_dims"),
    ("endo", "hom_sc_bimodule_sides", "relrep.endo", "hom_sc_bimodule_sides"),
    ("cli", "main", "relrep.cli", "main"),
]
LAYERS = ["exact_linalg", "path_algebra", "rep", "homology", "relhom", "endo", "cli"]
ROOT_LAYER = "unwrapped"


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{ROOT_LAYER}.request"]
        self.layers: list[str] = [ROOT_LAYER]
        self.calls: list[int] = [0]
        self.self_s: list[float] = [0.0]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self._stack: list[list] = []
        self.request_id = -1
        self.rref_cells = 0
        self.end_algebra_dim = 0
        self.hom_space_hits = 0
        self.wall_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_request.append(self.request_id)
        stack.append([idx, start, 0.0, nid])

    def _close(self) -> float:
        end = perf_counter()
        idx, start, child, nid = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[nid] += dur - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._open(0)

    def end_request(self) -> None:
        self.wall_s += self._close()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layers.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_cells(self, args) -> None:
        self.rref_cells += args[0].rows * args[0].cols

    def _count_hit(self, args) -> None:
        x, y = args[0], args[1]
        if id(y) in x._cache.get("homspaces", ()):
            self.hom_space_hits += 1

    def _count_dim(self, result) -> None:
        self.end_algebra_dim += result[0].dim

    def install(self) -> None:
        """Wrap every target in the relrep modules currently imported."""
        hooks = {
            "rref": (self._count_cells, None),
            "hom_space": (self._count_hit, None),
            "end_algebra": (None, self._count_dim),
        }
        modules = [m for n, m in sys.modules.items() if n == "relrep" or n.startswith("relrep.")]
        for layer, name, module_name, attr in TARGETS:
            before, after = hooks.get(name, (None, None))
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(layer, name, getattr(cls, method), before, after))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(layer, name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS + [ROOT_LAYER]}
        for name, layer, calls, self_s in zip(self.names, self.layers, self.calls, self.self_s):
            layer_self[layer] += self_s
            if layer != ROOT_LAYER:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        hom_calls = out["rep.hom_space.calls"]
        out["exact_linalg.rref.cells"] = self.rref_cells
        out["endo.end_algebra.dim"] = self.end_algebra_dim
        out["rep.hom_space.hit_ratio"] = self.hom_space_hits / hom_calls if hom_calls else 0.0
        out["traced_wall_s"] = self.wall_s
        return out

    def write(self, stem: Path) -> Path:
        """Write the spans as ``<stem>.bin`` (column arrays) plus a JSON header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.span_name),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
            ("parent", self.span_parent),
            ("request", self.span_request),
        ]
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "byteorder": sys.byteorder,
            "columns": [
                {"name": n, "typecode": c.typecode, "itemsize": c.itemsize} for n, c in columns
            ],
            "layout": "each column written whole, in the order listed; parent -1 is a root",
        }
        path = stem.with_suffix(".json")
        path.write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
        return path
