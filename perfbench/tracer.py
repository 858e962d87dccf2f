"""Outside-in span tracer for frobamp.

The tracer wraps public functions and class methods of the ``frobamp``
package from outside; nothing under ``src/`` changes.  ``from .linalg import
rank_mod`` binds the function under a second name inside ``modules``,
``cohomology`` and ``resolution``, so every attribute across the
``frobamp.*`` namespaces that *is* the original function object is
replaced, and methods are replaced on their class (which also catches
aliases such as ``MultiPoly.__rmul__ = __mul__``).

Each wrapped call records a span: name, start, end and parent span.  Spans
live in flat arrays while the run goes on and are written out at the end.
Hot inner helpers (``groebner.term_key``, ``leading_term``,
``vec_sub_multiple``, ``polynomials.count_monomials`` ...) are deliberately
not wrapped: they run millions of times per second and a span per call would
measure the tracer instead of the program.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

# layer (module name) -> public functions wrapped in that module
FUNCTIONS = {
    "polynomials": ("frobenius_poly", "parse_poly"),
    "groebner": ("buchberger", "syzygies", "normal_form", "groebner_basis",
                 "buchberger_criterion_holds"),
    "resolution": ("free_resolution", "minimal_resolution", "syzygy_map",
                   "hilbert_polynomial"),
    "modules": ("tensor", "twist", "frobenius_module", "direct_sum",
                "spot_check_constant_rank"),
    "linalg": ("rank_mod", "rref_mod", "row_space_contains",
               "solve_rational"),
    "cohomology": ("sheaf_cohomology", "ext_dual_dimension",
                   "cohomology_table", "regularity", "minreg_areg",
                   "reg_of_space"),
    "amplitude": ("f_amplitude",),
    "pushforward": ("splitting_type", "splitting_oracle"),
    "schur": ("schur_dimension",),
    "verify": ("run_verify",),
    "modfile": ("loads_module", "load_module"),
    "cli": ("main",),
}

# (layer, class name, methods) wrapped on the class
METHODS = (
    ("polynomials", "MultiPoly", ("__mul__", "__add__", "__sub__")),
    ("modules", "GradedMap", ("degree_piece", "compose")),
    ("modules", "GradedModule", ("hilbert_function",)),
)


def _shape_cells(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        cells = 1
        for s in shape:
            cells *= s
        return cells
    rows = len(matrix)
    return rows * len(matrix[0]) if rows else 0


def _observe_rank(tr, args, out):
    cells = _shape_cells(args[0])
    tr.add("linalg.rank_cells", cells)
    tr.peak("linalg.rank_max_cells", cells)


def _observe_degree_piece(tr, args, out):
    cells = out.size
    tr.add("modules.degree_piece_cells", cells)
    tr.peak("modules.degree_piece_max_cells", cells)


def _observe_buchberger(tr, args, out):
    tr.add("groebner.basis_elems", len(out))


def _observe_syzygies(tr, args, out):
    tr.add("groebner.syzygies_out", len(out[0]))


def _observe_resolution(tr, args, out):
    ranks = [len(out.module_twists(k)) for k in range(out.length + 1)]
    tr.add("resolution.betti_total", sum(ranks))
    tr.add("resolution.rank_ge2", sum(ranks[2:]))


OBSERVERS = {
    "linalg.rank_mod": _observe_rank,
    "modules.GradedMap.degree_piece": _observe_degree_piece,
    "groebner.buchberger": _observe_buchberger,
    "groebner.syzygies": _observe_syzygies,
    "resolution.free_resolution": _observe_resolution,
}


class Tracer:
    """Span recorder that patches ``frobamp`` while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters = {}
        self._patches = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0)
        self.span_start.append(perf_counter_ns())
        self.stack.append(i)
        return i

    def end(self, i: int):
        self.span_end[i] = perf_counter_ns()
        self.stack.pop()

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def repair(self, first: int):
        """Make spans from index ``first`` on consistent after an interrupt.

        A timeout is delivered as an exception between any two bytecodes,
        possibly inside ``begin`` or ``end``.  Arrays are cut to a common
        length, open spans are closed now, and the stack is reset.
        """
        n = min(len(self.span_name), len(self.span_parent),
                len(self.span_start), len(self.span_end))
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[n:]
        now = perf_counter_ns()
        for i in range(first, n):
            if self.span_end[i] == 0:
                self.span_end[i] = now
        self.stack = [-1]

    # -- patching -----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        observe = OBSERVERS.get(name)
        begin, end = self.begin, self.end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(i)
            if observe is not None:
                observe(tracer, args, out)
            return out

        return traced

    def install(self):
        """Replace every alias of the traced functions across frobamp.*."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"frobamp.{layer}")
                  for layer in FUNCTIONS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "frobamp" or n.startswith("frobamp."))
                      and m is not None]
        targets = {}
        for layer, names in FUNCTIONS.items():
            for fname in names:
                fn = getattr(layers[layer], fname)
                targets[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])
        for layer, cls_name, methods in METHODS:
            cls = getattr(layers[layer], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                wrapped = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        self._patches.append((cls, attr, value))
                        setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its child
        spans.
        """
        n = len(self.span_name)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        stats = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = end[i] - start[i]
            calls, incl, own = stats.get(name, (0, 0, 0))
            stats[name] = (calls + 1, incl + dur, own + dur - child[i])
        return {k: (c, a / 1e9, s / 1e9) for k, (c, a, s) in stats.items()}

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        count = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != nid:
                continue
            par = self.span_parent[i]
            while par >= 0 and self.span_name[par] != aid:
                par = self.span_parent[par]
            count += par >= 0
        return count

    def write(self, path):
        """Write spans as gzipped tab-separated name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{self.names[nid]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\n")
