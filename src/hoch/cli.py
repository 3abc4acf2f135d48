"""Batch front door: parse a JSON job spec, run, emit a report.

Exit codes: 0 pass, 1 fail, 2 usage/schema error, 3 infeasible.
Reports are deterministic for a fixed job spec apart from the timestamp
and wall-time fields.
"""

import argparse
import datetime
import json
import random
import sys
import time
from fractions import Fraction

from . import dga, hochschild as hh, simp
from .dga import AlgebraClassError
from .homalg import Coefficients, WindowError, per_degree
from .hochschild import InfeasibleError, TruncationError
from .linalg import _acc, _signed


class SchemaError(ValueError):
    pass


TASKS = (
    "homology",
    "hkr-check",
    "bar",
    "iterated-bar",
    "twisted-hh",
    "excision-check",
    "cech",
    "cup-table",
    "shuffle-check",
)

# the tasks that rank CH_Y(A) or CH_Y(A, M) from the simplicial builder
CHAIN_TASKS = ("homology", "hkr-check", "bar")

# the other tasks that build one complex; it is held to the same cap
BUILT_TASKS = ("iterated-bar", "twisted-hh", "cech", "shuffle-check")

_TOP_FIELDS = {
    "schema",
    "task",
    "algebra",
    "space",
    "coefficients",
    "window",
    "weights",
    "module",
    "automorphism",
    "iterations",
    "cover",
    "output",
    "cap",
    "expect",
    "expect_per_degree",
    "trials",
    "seed",
}


def load_jobspec(obj):
    if not isinstance(obj, dict):
        raise SchemaError("job spec must be a JSON object")
    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")
    if obj.get("schema") != 1:
        raise SchemaError('job spec must declare "schema": 1')
    task = obj.get("task")
    if task not in TASKS:
        raise SchemaError(f"task must be one of {TASKS}")
    window = obj.get("window", [-6, 0])
    if (
        not isinstance(window, list)
        or len(window) != 2
        or not all(isinstance(x, int) for x in window)
        or window[0] > window[1]
    ):
        raise SchemaError("window must be [lo, hi] with lo <= hi")
    weights = obj.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not all(
            isinstance(w, int) and w >= 0 for w in weights
        ):
            raise SchemaError("weights must be a list of non-negative ints")
        if not weights:
            # an empty list would select no chain at all
            raise SchemaError("weights must name at least one weight")
    cap = obj.get("cap", 20000)
    if not isinstance(cap, int) or cap <= 0:
        raise SchemaError("cap must be a positive int")
    _integer(obj, "iterations", None, 0)
    _integer(obj, "trials", None, 1)
    _integer(obj, "seed", None)
    if type(obj.get("coefficients", "Q")) is not str:
        raise SchemaError("coefficients must be a string, Q or Fp:<p>")
    if obj.get("module", "self") != "self":
        raise SchemaError(f"module must be 'self', not {obj['module']!r}")
    if "automorphism" in obj:
        _twist_scalar(obj)
    out = dict(obj)
    out["window"] = tuple(window)
    out["weights"] = list(weights) if weights is not None else None
    out["cap"] = cap
    out.setdefault("output", "text")
    if out["output"] not in ("text", "json"):
        raise SchemaError("output must be text or json")
    return out


def parse_coefficients(spec):
    return Coefficients.parse(spec.get("coefficients", "Q"))


_REQUIRED = object()


def _integer(desc, key, default=_REQUIRED, minimum=None):
    """``desc[key]`` as jobs/schema.json has it: an int, at least
    ``minimum`` if given; ``default`` when absent (SchemaError if none).

    >>> _integer({"iterations": "2"}, "iterations", 1, 0)
    Traceback (most recent call last):
    ...
    hoch.cli.SchemaError: iterations must be an integer >= 0, not '2'
    """
    if key not in desc:
        if default is _REQUIRED:
            raise SchemaError(f"{key!r} is required")
        return default
    value = desc[key]
    if type(value) is not int or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"{key} must be an integer{bound}, not {value!r}")
    return value


def _object(desc, what):
    if not isinstance(desc, dict):
        raise SchemaError(f"{what} must be an object, not {desc!r}")
    return desc


def _lists(desc, key, size, what):
    """``desc[key]`` (empty when absent): a list of ``size``-item lists."""
    items = desc.get(key, [])
    if not isinstance(items, list) or not all(
        isinstance(e, list) and len(e) == size for e in items
    ):
        raise SchemaError(f"{key} must be a list of {what} lists")
    return items


def _rational(value, what, types=(str,)):
    """A rational as jobs/schema.json has it: a string 'p/q' (or an int,
    where ``types`` takes one)."""
    if type(value) not in types:
        raise SchemaError(f"{what} must be a string 'p/q', not {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what} {value!r} is not a rational") from exc


def build_algebra(desc, coefficients, weights=None):
    if not isinstance(desc, dict) or "name" not in desc and "basis" not in desc:
        raise SchemaError("algebra descriptor needs a name or a presentation")
    if "basis" in desc:
        return _inline_algebra(desc, coefficients)
    name = desc["name"]
    if name == "exterior":
        return dga.exterior(coefficients, _integer(desc, "degree", -1))
    if name == "truncated-polynomial":
        return dga.truncated_polynomial(
            coefficients, _integer(desc, "truncation", 2, 2),
            _integer(desc, "degree", 0),
        )
    if name == "polynomial":
        max_w = _integer(desc, "max_weight", None, 1)
        if max_w is None:
            max_w = max(weights) if weights else 8
        return dga.polynomial(coefficients, max_w)
    raise SchemaError(f"unknown algebra {name!r}")


def _inline_algebra(desc, coefficients):
    f = coefficients.field
    missing = {"unit", "mult"} - set(desc)
    if missing:
        raise SchemaError(f"inline algebra needs {sorted(missing)}")
    entries = [_object(b, "a basis entry") for b in desc["basis"]]
    basis = [
        (b.get("label"), _integer(b, "degree"), _integer(b, "weight", 0, 0))
        for b in entries
    ]
    pos = {b[0]: i for i, b in enumerate(basis)}

    def at(label):
        if type(label) is not str or label not in pos:
            raise SchemaError(f"undeclared basis label {label!r}")
        return pos[label]

    def terms(out):  # {label: coefficient string 'p/q'}
        return {at(k): f.coerce(_rational(v, "a coefficient"))
                for k, v in _object(out, "a linear combination").items()}

    mult = {(at(a), at(b)): terms(out)
            for a, b, out in _lists(desc, "mult", 3, "[a, b, {label: c}]")}
    diff = {at(a): terms(out)
            for a, out in _lists(desc, "differential", 2, "[a, {label: c}]")}
    aug = terms(desc["augmentation"]) if "augmentation" in desc else None
    unit = at(desc["unit"])
    try:
        return dga.DGAlgebra(
            desc.get("label", "inline"),
            coefficients,
            basis,
            mult,
            unit=unit,
            diff=diff,
            commutative=desc.get("commutative", True),
            augmentation=aug,
            weight_graded=desc.get("weight_graded", False),
        )
    except (AlgebraClassError, ValueError) as exc:
        raise SchemaError(f"bad algebra presentation: {exc}") from exc


def build_space(desc, level):
    name = _object(desc, "space").get("name")
    if name == "point":
        return simp.point(level)
    if name == "interval":
        return simp.interval(level)
    if name == "circle":
        return simp.circle(level)
    if name == "torus":
        return simp.torus(level)
    if name == "sphere-standard":
        return simp.sphere_standard(_integer(desc, "d", 2, 1), level)
    if name == "sphere-small":
        return simp.sphere_small(_integer(desc, "d", 2, 1), level)
    if name == "surface":
        return simp.surface(_integer(desc, "g", 1, 1), level)
    if name == "wedge-circles":
        c = simp.circle(level)
        return simp.wedge(c, c)
    raise SchemaError(f"unknown space {desc!r}")


def space_level_for(spec, A, space_desc):
    """The spec's level of the space, or the level that the builder reads
    (``hochschild.required_level``)."""
    probe = build_space(space_desc, 0)  # checks the descriptor first
    level = _integer(space_desc, "level", None, 0)
    if level is not None:
        return level
    return hh.required_level(probe, A, spec["window"], spec["weights"])[0]


def _chain_inputs(spec, coefficients):
    """(space, algebra, module) of a chain task, or of shuffle-check.

    The space is the spec's (the circle by default), except for ``bar``:
    the Bar construction is always the interval with self coefficients.
    ``homology`` takes self coefficients when the spec asks for them.
    """
    task = spec["task"]
    A = build_algebra(spec["algebra"], coefficients, spec["weights"])
    if task == "bar":
        space_desc = {"name": "interval"}
    else:
        space_desc = spec.get("space", {"name": "circle"})
    Y = build_space(space_desc, space_level_for(spec, A, space_desc))
    module = None
    if task == "bar" or (task == "homology" and spec.get("module") == "self"):
        module = dga.algebra_as_bimodule(A)
    return Y, A, module


def _build(spec, coefficients):
    """(algebra, complex, max_block) of a task in CHAIN_TASKS or BUILT_TASKS:
    InfeasibleError when a (degree, weight) block exceeds the cap."""
    task, window, weights, cap = (
        spec["task"], spec["window"], spec["weights"], spec["cap"]
    )
    if task in CHAIN_TASKS + ("shuffle-check",):
        Y, A, module = _chain_inputs(spec, coefficients)
        if module is None:
            H = hh.hochschild_chain(Y, A, window, weights, cap=cap)
        else:
            H = hh.hochschild_chain_with_coeff(
                Y, A, module, window, weights, cap=cap
            )
        return A, H, H.complex.max_block_dim()
    if task == "cech":
        C = _run_cech(spec, coefficients)
        return None, C, hh.check_cap(C.total, cap)
    A = build_algebra(spec["algebra"], coefficients, weights)
    if task == "iterated-bar":
        C = hh.iterated_bar(
            A, spec.get("iterations", 1), window, weights, cap=cap
        )
    else:
        sigma = _scaling_automorphism(A, _twist_scalar(spec))
        C = hh.twisted_hochschild(A, sigma, window, cap)
    return A, C, C.max_block_dim()


def _twist_scalar(spec):
    automorphism = _object(spec.get("automorphism", {}), "automorphism")
    return _rational(automorphism.get("x", -1), "automorphism x", (int, str))


def _betti_entries(table):
    return [
        {"degree": d, "weight": w, "dim": v}
        for (d, w), v in sorted(table.items())
    ]


def run_job(spec):
    """Execute a parsed job spec; returns the report dict."""
    t0 = time.time()
    coefficients = parse_coefficients(spec)
    window = spec["window"]
    weights = spec["weights"]
    deltas = []
    betti_table = {}
    extra = {}
    task = spec["task"]

    if task in CHAIN_TASKS + BUILT_TASKS:
        A, C, extra["max_block"] = _build(spec, coefficients)
    if task in CHAIN_TASKS:
        betti_table = C.homology_dims(window, weights)
    if task == "hkr-check":
        pred = hh.hkr_prediction(
            _hkr_descriptor(spec["algebra"], A),
            _hkr_space(spec.get("space", {"name": "circle"})),
            window,
            weights,
        )
        deltas.append(_delta("hkr_prediction", pred, betti_table))
    elif task == "bar":
        acyclic = {}
        for p in range(A.dim):
            key = (A.degrees[p], A.weights[p])
            if weights is not None and A.weights[p] not in weights:
                continue
            if window[0] <= A.degrees[p] <= window[1]:
                acyclic[key] = acyclic.get(key, 0) + 1
        deltas.append(_delta("bar_acyclicity(dims of A)", acyclic, betti_table))
    elif task == "iterated-bar":
        betti_table = C.homology_dims(window, weights)
        if spec.get("iterations", 1) == 1:
            k_mod = dga.augmentation_module(A)
            B = hh.two_sided_bar(k_mod, A, k_mod, window)
            deltas.append(
                _delta(
                    "two_sided_bar(k,A,k)",
                    B.homology_dims(window, weights),
                    betti_table,
                )
            )
    elif task == "twisted-hh":
        betti_table = C.homology_dims(window, None)
        trunc = spec["algebra"].get("truncation", 2)
        oracle = hh.periodic_resolution_dims(
            trunc, _twist_scalar(spec), window, coefficients
        )
        got = per_degree(betti_table, window)
        deltas.append(_delta("periodic_resolution", oracle, got))
    elif task == "excision-check":
        from . import cech

        A = build_algebra(spec["algebra"], coefficients, weights)
        report = cech.excision_report(A, window, spec["cap"])
        betti_table = {(d, 0): v for d, v in report["enveloping"].items() if v}
        deltas.append(
            _delta("circle_vs_enveloping", report["circle"],
                   report["enveloping"])
        )
        extra["max_block"] = 0
    elif task == "cech":
        betti_table = C.homology_dims(window, None)
        if spec.get("cover", {}).get("compare_cone_gluing"):
            cone_dims = _cone_gluing_dims(coefficients)
            deltas.append(
                _delta("cone_excision_gluing", cone_dims,
                       per_degree(betti_table, window))
            )
    elif task == "cup-table":
        A = build_algebra(spec["algebra"], coefficients, weights)
        table, ok = _cup_table(A, spec)
        extra["cup_table"] = table
        extra["max_block"] = 0
        deltas.append({"name": "cup_chain_level_axioms", "delta": 0 if ok else 1})
    elif task == "shuffle-check":
        ok, checked = _shuffle_check(C, spec)
        extra["cases"] = checked
        deltas.append({"name": "shuffle_axioms", "delta": 0 if ok else 1})

    if "expect" in spec:
        want = {
            _parse_key(k): v for k, v in spec["expect"].items()
        }
        got = {k: v for k, v in betti_table.items()}
        deltas.append(_delta("expected_betti", want, got))
    if "expect_per_degree" in spec:
        want = {int(k): v for k, v in spec["expect_per_degree"].items()}
        got = per_degree(betti_table, window)
        deltas.append(_delta("expected_betti_per_degree", want, got))

    verdict = "pass" if all(d["delta"] == 0 for d in deltas) else "fail"
    report = {
        "job": _echo(spec),
        "betti": _betti_entries(betti_table),
        "oracles": deltas,
        "max_block": extra.get("max_block", 0),
        "verdict": verdict,
        "wall_time_s": round(time.time() - t0, 3),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    for k, v in extra.items():
        if k not in ("max_block",):
            report[k] = v
    return report


def _echo(spec):
    out = {k: v for k, v in spec.items() if v is not None}
    out["window"] = list(spec["window"])
    return out


def _parse_key(key):
    parts = key.split(",")
    if len(parts) == 1:
        return (int(parts[0]), 0)
    return (int(parts[0]), int(parts[1]))


def _delta(name, expected, got):
    exp = {k: v for k, v in expected.items() if v}
    g = {k: v for k, v in got.items() if v}
    mismatches = 0
    for k in set(exp) | set(g):
        if exp.get(k, 0) != g.get(k, 0):
            mismatches += 1
    return {"name": name, "delta": mismatches}


def _hkr_descriptor(desc, A):
    if desc.get("name") == "polynomial":
        return "polynomial"
    if desc.get("name") == "exterior":
        return {"free_generators": [(desc.get("degree", -1), 1)]}
    raise SchemaError("hkr-check needs a polynomial or exterior algebra")


def _hkr_space(desc):
    name = desc.get("name")
    if name in ("sphere-small", "sphere-standard"):
        return ("sphere", desc.get("d", 2))
    if name == "torus":
        return ("surface", 1)
    if name == "surface":
        return ("surface", desc.get("g", 1))
    raise SchemaError("hkr-check needs a sphere or surface model")


def _scaling_automorphism(A, scalar):
    f = A.coefficients.field
    images = {}
    for p in range(A.dim):
        images[p] = {p: f.coerce(Fraction(scalar) ** A.weights[p])}
    return dga.AlgebraAutomorphism(A, images)


def _run_cech(spec, coefficients):
    from . import cech

    cover_desc = spec.get("cover")
    if not isinstance(cover_desc, dict):
        raise SchemaError("cech task needs a cover descriptor")
    ambient = cover_desc.get("ambient", "circle")
    mode = cover_desc.get("mode", "coproduct")
    trunc = _integer(cover_desc, "truncation", 2, 0)
    if ambient == "circle":
        arcs = [
            (_rational(a, "an arc start"), _rational(l, "an arc length"))
            for a, l in _lists(cover_desc, "arcs", 2, "[start, length]")
        ]
        poset = cech.circle_arc_poset(arcs)
    elif ambient == "interval":
        opens = cover_desc.get("opens", [])
        if not isinstance(opens, list) or not all(
            isinstance(o, list) and o[:1] in (["r"], ["m"], ["l"])
            and len(o) == 2 + (o[0] == "m") for o in opens
        ):
            raise SchemaError("opens must be a list of ['r', s], ['m', t, u]"
                              " or ['l', t] lists")
        poset = cech.interval_poset([
            (o[0], *(_rational(e, "an interval endpoint") for e in o[1:]))
            for o in opens
        ])
    else:
        raise SchemaError("cech cover ambient must be circle or interval")
    value = cover_desc.get("value", "constant-Q")
    if value == "constant-Q" and mode == "coproduct":
        F = cech.constant_precosheaf(poset, coefficients)
    elif value == "trivial" and mode == "tensor":
        F = cech.trivial_prefactorization(poset, coefficients)
    elif value == "arc-algebra" and mode == "tensor":
        A = build_algebra(spec["algebra"], coefficients)
        F = cech.circle_arc_algebra(A, poset)
    else:
        raise SchemaError(f"unsupported cech value/mode {value}/{mode}")
    ok, wit = cech.validate_prefactorization(F)
    if not ok:
        raise SchemaError(f"prefactorization audit failed: {wit}")
    return cech.cech_complex(F, poset.opens, trunc)


def _cone_gluing_dims(coefficients):
    from .homalg import ChainComplex, ChainMap, cone

    f = coefficients.field
    Z = ChainComplex(coefficients)
    Z.add_element("z1", 0, 0)
    Z.add_element("z2", 0, 0)
    Z.freeze(support=(0, 0))
    XY = ChainComplex(coefficients)
    XY.add_element("x", 0, 0)
    XY.add_element("y", 0, 0)
    XY.freeze(support=(0, 0))
    fm = ChainMap(Z, XY)
    for z in ("z1", "z2"):
        fm.set_entry(z, "x", f.one)
        fm.set_entry(z, "y", f.coerce(-1))
    return cone(fm).betti((-1, 0))


def _cup_table(A, spec):
    from . import products

    f = A.coefficients.field
    cc = products.ClassicalCochains(A, 4)
    basis = []
    for n in range(3):
        for arg in cc.args[n]:
            for v in range(A.dim):
                basis.append({(n, arg, v): f.one})
    one = {(0, (), A.unit): f.one}
    ok = all(cc.cup(one, b) == b and cc.cup(b, one) == b for b in basis)
    for a in basis:
        for b in basis:
            for c in basis:
                if cc.cup(cc.cup(a, b), c) != cc.cup(a, cc.cup(b, c)):
                    ok = False
    table = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            prod = A.product(i, j)
            row.append(
                {A.labels[k]: str(v) for k, v in sorted(prod.items())}
            )
        table.append(row)
    return {"hh0_basis": list(A.labels), "product": table}, ok


def _shuffle_check(H, spec):
    from . import products

    f = H.algebra.coefficients.field
    C = H.complex
    rng = random.Random(spec.get("seed", 0))
    labels = sorted(
        lab for lab in C.index if lab[0] <= 2 and C.index[lab][0] >= -2
    )
    degs = {}
    for lab in labels:
        degs.setdefault(C.index[lab][0], []).append(lab)
    one = products.unit_chain(H)
    trials = spec.get("trials", 100)
    ok = True

    def rand_chain():
        d = rng.choice(sorted(degs))
        labs = rng.sample(degs[d], min(2, len(degs[d])))
        return d, {lab: f.coerce(rng.choice([-2, -1, 1, 2])) for lab in labs}

    for _ in range(trials):
        du, u = rand_chain()
        dv, v = rand_chain()
        if products.shuffle_product(H, one, u) != u:
            ok = False
        uv = products.shuffle_product(H, u, v)
        # Leibniz: d(uv) = d(u) v + (-1)^{|u|} u d(v)
        rhs = products.shuffle_product(H, C.d_apply(u), v)
        udv = products.shuffle_product(H, u, C.d_apply(v))
        for k, c in _signed(udv, du, f).items():
            _acc(rhs, k, c, f)
        if C.d_apply(uv) != rhs:
            ok = False
        vu = products.shuffle_product(H, v, u)
        if uv != _signed(vu, du * dv, f):
            ok = False
    return ok, trials


def explain_job(spec):
    """Size a job without ranking a block.

    A chain task is sized by ``hochschild.build_levels``, the build that
    ``run`` starts with, under the same cap and before any face map: a
    (degree, weight) block of the total complex over the cap raises
    InfeasibleError.  The report gives the truncation level, whether it
    exhausts the complex, the level dims, the cap and the largest block.
    The complexes of BUILT_TASKS, and the classical complex of a genuine
    bimodule over the circle, are built as ``run`` builds them and
    reported by their largest block alone.  An ``excision-check`` lays out
    the bases of its two complexes under the cap, as ``run`` does first,
    and is otherwise only noted.
    """
    task, window, weights, cap = (
        spec["task"], spec["window"], spec["weights"], spec["cap"]
    )
    if task == "excision-check":
        from . import cech

        cech.excision_layout(
            build_algebra(spec["algebra"], parse_coefficients(spec), weights),
            window, cap,
        )
    if task not in CHAIN_TASKS + BUILT_TASKS:
        return {"job": _echo(spec), "note": "explain supports chain tasks"}
    coefficients = parse_coefficients(spec)
    report = {"job": _echo(spec), "cap": cap}
    if task in CHAIN_TASKS:
        Y, A, module = _chain_inputs(spec, coefficients)
    if task in BUILT_TASKS or module is not None and not module.symmetric:
        report["max_block"] = _build(spec, coefficients)[2]
        return report
    levels, exhausted, blocks, _supports = hh.build_levels(
        Y, A, module, window, weights, cap=cap
    )
    report.update(
        truncation_level=len(levels) - 1,
        exhausted=exhausted,
        level_dims=[len(c.index) for c in levels],
        max_block=max(blocks.values(), default=0),
    )
    return report


# -- entry points -------------------------------------------------------------


def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=str)
    lines = [f"task: {report['job']['task']}"]
    if "cap" in report:  # an explain report
        if "truncation_level" in report:
            lines.append(f"truncation level: {report['truncation_level']}")
            lines.append(f"level dims: {report['level_dims']}")
        lines.append(f"max block: {report['max_block']}")
        return "\n".join(lines) + "\n"
    lines.append("betti (degree, weight, dim):")
    for e in report.get("betti", []):
        lines.append(f"  {e['degree']:4d} {e['weight']:3d} {e['dim']:4d}")
    for d in report.get("oracles", []):
        lines.append(f"oracle {d['name']}: delta={d['delta']}")
    lines.append(f"max block: {report.get('max_block', 0)}")
    lines.append(f"wall time: {report.get('wall_time_s', 0)}s")
    lines.append(f"verdict: {report.get('verdict', 'n/a')}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hoch",
        description="exact higher Hochschild / factorization-homology jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("run", "explain"):
        p = sub.add_parser(cmd)
        p.add_argument("jobspec", help="path to a JSON job spec")
        p.add_argument("--coefficients", default=None, help="Q or Fp:<p>")
        p.add_argument("--window", default=None, help="a..b")
        p.add_argument("--weights", default=None, help="w1,w2,...")
        p.add_argument("--format", default=None, choices=("text", "json"))
        p.add_argument("--cap", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.jobspec) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.coefficients:
            raw["coefficients"] = args.coefficients
        if args.window:
            lo, _, hi = args.window.partition("..")
            raw["window"] = [int(lo), int(hi)]
        if args.weights:
            raw["weights"] = [int(w) for w in args.weights.split(",")]
        if args.format:
            raw["output"] = args.format
        if args.cap is not None:
            raw["cap"] = args.cap
        spec = load_jobspec(raw)
    except (SchemaError, ValueError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "explain":
            report = explain_job(spec)
            sys.stdout.write(render(report, spec["output"]))
            return 0
        report = run_job(spec)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (TruncationError, WindowError, AlgebraClassError, SchemaError,
            ValueError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(report, spec["output"]))
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
