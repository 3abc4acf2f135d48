"""Per-layer tracing for the benchmark, from outside the hoch package.

``Tracer.install`` replaces every binding of each traced function object
in the ``hoch.*`` module namespaces (or the class attribute, for a method)
with a timing wrapper; ``uninstall`` puts every original back.  Nothing is
inserted into hoch itself.  A traced name that no longer exists is recorded
as absent, and the metrics built on it are reported as absent.

A span's self time is its duration minus the durations of the traced spans
it directly contains, so the self times of all traced functions add up to
the time spent inside the outermost traced calls.
"""

import importlib
import sys
import time

# layer (hoch module) -> traced names: a module function, or Class.method
TRACED = {
    "simp": (
        "point", "interval", "circle", "torus", "product", "wedge",
        "sphere_standard", "sphere_small", "surface", "from_nondegenerate",
    ),
    "dga": (
        "apply_setmap", "polynomial", "truncated_polynomial", "exterior",
        "algebra_as_bimodule",
    ),
    "hochschild": (
        "build_simplicial_ch", "hochschild_chain",
        "hochschild_chain_with_coeff", "hkr_prediction",
        "periodic_resolution_dims",
    ),
    "homalg": ("total_complex", "ChainComplex.homology_dims"),
    "linalg": (
        "rank", "kernel_basis", "SubquotientSpace.__init__",
        "SubquotientSpace.same_class",
    ),
    "products": ("CochainComplexData.__init__", "wedge_product"),
    "cli": ("run_job",),
}

# calls whose arguments and results are kept for the per-block table
KEPT = frozenset({
    "hochschild.build_simplicial_ch",
    "homalg.ChainComplex.homology_dims",
    "linalg.rank",
    "linalg.SubquotientSpace.__init__",
    "products.CochainComplexData.__init__",
})

# metric -> unit; the order is the order of the traced report
PER_LAYER_UNITS = {
    "simp.build_s": "s",
    "hochschild.build_self_s": "s",
    "hochschild.basis": "count",
    "dga.apply_setmap_s": "s",
    "dga.apply_setmap_calls": "count",
    "homalg.total_complex_s": "s",
    "homalg.homology_self_s": "s",
    "homalg.nnz": "count",
    "homalg.max_block_dim": "count",
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.rank_max_block_s": "s",
    "linalg.rank_unique_ratio": "1",
    "linalg.subquotient_s": "s",
    "linalg.subquotient_calls": "count",
    "products.cochain_build_s": "s",
    "products.wedge_s": "s",
    "cli.run_job_self_s": "s",
}


def _hoch_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "hoch" or key.startswith("hoch."))
    ]


class Stat:
    """Aggregate of one traced function's spans."""

    __slots__ = ("calls", "incl_s", "self_s", "max_s", "depth")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.incl_s = 0.0  # outermost calls only, so recursion counts once
        self.self_s = 0.0
        self.max_s = 0.0
        self.depth = 0


class Tracer:
    """Timing wrappers around the TRACED functions; use as a context manager."""

    def __init__(self):
        self.stats = {}  # "layer.name" -> Stat
        self.kept = {}  # "layer.name" -> [(args, result, seconds)]
        self.absent = []
        self._stack = []  # child-time accumulator per open span
        self._restore = []  # (namespace, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        self.absent = []
        for layer, names in TRACED.items():
            try:
                module = importlib.import_module(f"hoch.{layer}")
            except ImportError:
                module = None
            for name in names:
                self._install_one(layer, module, name)

    def _install_one(self, layer, module, name):
        qual = f"{layer}.{name}"
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.absent.append(qual)
            return
        wrapper = self._wrap(qual, original)
        if owner_name:
            bindings = [(owner, attr)]
        else:
            bindings = [
                (mod, key)
                for mod in _hoch_modules()
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for namespace, key in bindings:
            setattr(namespace, key, wrapper)
            self._restore.append((namespace, key, original))

    def uninstall(self):
        while self._restore:
            namespace, key, original = self._restore.pop()
            setattr(namespace, key, original)

    def reset(self):
        for stat in self.stats.values():
            stat.reset()
        for calls in self.kept.values():
            calls.clear()

    def self_total(self, layer=None):
        """Sum of self times, over one layer or over every traced function."""
        return sum(
            stat.self_s for qual, stat in self.stats.items()
            if layer is None or qual.split(".", 1)[0] == layer
        )

    def _wrap(self, qual, original):
        stat = self.stats.setdefault(qual, Stat())
        kept = self.kept.setdefault(qual, []) if qual in KEPT else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            outermost = stat.depth == 0
            stat.depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - children
                if outermost:
                    stat.incl_s += elapsed
                if elapsed > stat.max_s:
                    stat.max_s = elapsed
            if kept is not None:
                kept.append((args, result, elapsed))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", qual)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper


# -- metrics from one traced sample ------------------------------------------


def _matrix_key(mat):
    return mat.nrows, mat.ncols, frozenset(mat.entries())


def layer_metrics(tracer):
    """Per-layer metrics of the sample just traced; None marks absent."""
    absent = set(tracer.absent)

    def stat(qual, field):
        return None if qual in absent else getattr(tracer.stats[qual], field)

    def kept(qual):
        return None if qual in absent else tracer.kept[qual]

    out = {
        "simp.build_s": tracer.self_total("simp"),
        "hochschild.build_self_s": stat("hochschild.build_simplicial_ch", "self_s"),
        "dga.apply_setmap_s": stat("dga.apply_setmap", "self_s"),
        "dga.apply_setmap_calls": stat("dga.apply_setmap", "calls"),
        "homalg.total_complex_s": stat("homalg.total_complex", "incl_s"),
        "homalg.homology_self_s": stat("homalg.ChainComplex.homology_dims", "self_s"),
        "linalg.rank_s": stat("linalg.rank", "incl_s"),
        "linalg.rank_calls": stat("linalg.rank", "calls"),
        "linalg.rank_max_block_s": stat("linalg.rank", "max_s"),
        "linalg.subquotient_s": stat("linalg.SubquotientSpace.__init__", "incl_s"),
        "linalg.subquotient_calls": stat("linalg.SubquotientSpace.__init__", "calls"),
        "products.cochain_build_s": stat("products.CochainComplexData.__init__", "incl_s"),
        "products.wedge_s": stat("products.wedge_product", "incl_s"),
        "cli.run_job_self_s": stat("cli.run_job", "self_s"),
    }
    builds = kept("hochschild.build_simplicial_ch")
    out["hochschild.basis"] = None if builds is None else sum(
        len(level.index) for _args, scc, _s in builds for level in scc.levels
    )
    homologies = kept("homalg.ChainComplex.homology_dims")
    if homologies is None:
        out["homalg.nnz"] = out["homalg.max_block_dim"] = None
    else:
        complexes = [args[0] for args, _r, _s in homologies]
        out["homalg.nnz"] = sum(
            m.nnz() for c in complexes for m in c.diff.values()
        )
        out["homalg.max_block_dim"] = max(
            (c.max_block_dim() for c in complexes), default=0
        )
    ranks = kept("linalg.rank")
    if ranks is None:
        out["linalg.rank_unique_ratio"] = None
    elif not ranks:
        out["linalg.rank_unique_ratio"] = 1.0  # no elimination, none wasted
    else:
        distinct = {_matrix_key(args[0]) for args, _r, _s in ranks}
        out["linalg.rank_unique_ratio"] = len(distinct) / len(ranks)
    return {name: out[name] for name in PER_LAYER_UNITS}


def block_table(tracer):
    """One row per differential block eliminated in the sample just traced.

    Rank calls give degree, weight, rows, cols, nnz, rank and elimination
    seconds (summed over repeated calls on the same block); subquotient
    constructions give the same for their outgoing differential, with
    ``rank`` the rank of the incoming one and ``dim`` the subquotient.
    """
    where = {}
    for args, _r, _s in tracer.kept.get("homalg.ChainComplex.homology_dims", ()):
        for key, mat in args[0].diff.items():
            where[id(mat)] = key
    for args, _r, _s in tracer.kept.get("products.CochainComplexData.__init__", ()):
        for key, mat in args[0].complex.diff.items():
            where[id(mat)] = key
    rows = {}
    for args, result, seconds in tracer.kept.get("linalg.rank", ()):
        mat = args[0]
        row = rows.get(id(mat))
        if row is None:
            degree, weight = where.get(id(mat), (None, None))
            row = rows[id(mat)] = {
                "kind": "rank", "degree": degree, "weight": weight,
                "rows": mat.nrows, "cols": mat.ncols, "nnz": mat.nnz(),
                "rank": result, "seconds": 0.0, "calls": 0,
            }
        row["seconds"] += seconds
        row["calls"] += 1
    table = sorted(
        (r for r in rows.values() if r["nnz"]),
        key=lambda r: (r["weight"] is None, r["weight"] or 0, r["degree"] or 0),
    )
    for args, _r, seconds in tracer.kept.get("linalg.SubquotientSpace.__init__", ()):
        space, d_out = args[0], args[1]
        degree, weight = where.get(id(d_out), (None, None))
        table.append({
            "kind": "subquotient", "degree": degree, "weight": weight,
            "rows": d_out.nrows, "cols": d_out.ncols, "nnz": d_out.nnz(),
            "rank": space.image.rank, "dim": space.dim,
            "seconds": seconds, "calls": 1,
        })
    return table


def measured_level_dims(tracer):
    """Basis size per simplicial level of each complex the sample built."""
    dims = [
        [len(level.index) for level in scc.levels]
        for _a, scc, _s in tracer.kept.get("hochschild.build_simplicial_ch", ())
    ]
    for args, _r, _s in tracer.kept.get("products.CochainComplexData.__init__", ()):
        data = args[0]
        dims.append([len(a) * data.module.dim for a in data.args])
    return dims
