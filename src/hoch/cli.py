"""Batch front door: parse a JSON job spec, run, emit a report.

Exit codes: 0 pass, 1 fail, 2 usage/schema error, 3 infeasible.
Reports are deterministic for a fixed job spec apart from the timestamp
and wall-time fields.
"""

import datetime
import re
import sys
import time
from fractions import Fraction

from . import dga, hochschild as hh, simp
from .dga import AlgebraClassError
from .homalg import Coefficients, WindowError, per_degree
from .hochschild import InfeasibleError, TruncationError


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

# the keys of an asserted Betti table: their pattern and its description
_EXPECT_KEYS = {
    "expect": (r"-?[0-9]+(,[0-9]+)?", '"d" or "d,w"'),
    "expect_per_degree": (r"-?[0-9]+", '"d"'),
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
        or not all(type(x) is int for x in window)
        or window[0] > window[1]
    ):
        raise SchemaError("window must be [lo, hi] with lo <= hi")
    weights = obj.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not all(
            type(w) is int and w >= 0 for w in weights
        ):
            raise SchemaError("weights must be a list of non-negative ints")
        if not weights:
            # an empty list would select no chain at all
            raise SchemaError("weights must name at least one weight")
    cap = obj.get("cap", 20000)
    if type(cap) is not int or cap <= 0:
        raise SchemaError("cap must be a positive int")
    _integer(obj, "iterations", None, 0)
    _integer(obj, "trials", None, 1)
    _integer(obj, "seed", None)
    for key, (keys, form) in _EXPECT_KEYS.items():
        for k, v in _object(obj.get(key, {}), key).items():
            if not re.fullmatch(keys, k):
                raise SchemaError(f"{key} keys must be {form}, not {k!r}")
            if type(v) is not int or v < 0:
                raise SchemaError(
                    f"{key}[{k!r}] must be an integer >= 0, not {v!r}")
    if type(obj.get("coefficients", "Q")) is not str:
        raise SchemaError("coefficients must be a string, Q or Fp:<p>")
    if obj.get("module", "self") != "self":
        raise SchemaError(f"module must be 'self', not {obj['module']!r}")
    if "automorphism" in obj:
        _twist_scalar(obj)
    _task_inputs(obj, task)
    out = dict(obj)
    out["window"] = tuple(window)
    out["weights"] = list(weights) if weights is not None else None
    out["cap"] = cap
    out.setdefault("output", "text")
    if out["output"] not in ("text", "json"):
        raise SchemaError("output must be text or json")
    return out


def _task_inputs(obj, task):
    """The rules of jobs/schema.json that tie the algebra and the space to
    the task, so that run and explain refuse the same specs."""
    cover = obj.get("cover")
    if "algebra" not in obj:
        if task != "cech" or (isinstance(cover, dict)
                              and cover.get("value") == "arc-algebra"):
            raise SchemaError(f"{task} needs an algebra")
        return
    desc = _object(obj["algebra"], "algebra")
    inline = "basis" in desc
    name = None if inline else desc.get("name")
    if task == "twisted-hh" and (
            name != "truncated-polynomial" or desc.get("degree", 0) != 0):
        # the oracle, periodic_resolution_dims, holds for k[x]/x^N, |x| = 0
        raise SchemaError(
            "twisted-hh needs a truncated-polynomial algebra of degree 0")
    if task == "cup-table" and name not in (
            "exterior", "truncated-polynomial") and not (
            inline and desc.get("commutative", True) is True
            and not desc.get("differential")):
        # the reported HH^0 is A with its product: A must be its own centre
        raise SchemaError(
            "cup-table needs an exterior or truncated-polynomial algebra, or"
            " a commutative inline one with no differential")
    if task == "hkr-check":
        _hkr_descriptor(desc)
        _hkr_space(_object(obj.get("space", {"name": "circle"}), "space"))


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
    """(space, algebra, complex, max_block) of a task in CHAIN_TASKS or
    BUILT_TASKS, the space set only for the chain tasks and shuffle-check:
    InfeasibleError when a (degree, weight) block exceeds the cap."""
    task, window, weights, cap = (
        spec["task"], spec["window"], spec["weights"], spec["cap"]
    )
    if task in CHAIN_TASKS + ("shuffle-check",):
        Y, A, module = _chain_inputs(spec, coefficients)
        if module is None:
            C = hh.hochschild_chain(Y, A, window, weights, cap=cap)
        else:
            C = hh.hochschild_chain_with_coeff(
                Y, A, module, window, weights, cap=cap
            )
        return Y, A, C, C.max_block_dim()
    if task == "cech":
        from . import cech

        C = cech.spec_complex(spec, coefficients, cap)
        return None, None, C, C.max_block_dim()
    from . import classical

    A = build_algebra(spec["algebra"], coefficients, weights)
    if task == "iterated-bar":
        C = classical.iterated_bar(
            A, spec.get("iterations", 1), window, weights, cap=cap
        )
    else:
        sigma = classical.scaling_automorphism(A, _twist_scalar(spec))
        C = classical.twisted_hochschild(A, sigma, window, cap)
    return None, A, C, C.max_block_dim()


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
        Y, A, C, extra["max_block"] = _build(spec, coefficients)
    if task in CHAIN_TASKS:
        betti_table = C.homology_dims(window, weights)
    if task == "hkr-check":
        pred = hh.hkr_prediction(
            _hkr_descriptor(spec["algebra"]),
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
            from . import classical

            k_mod = classical.augmentation_module(A)
            B = classical.two_sided_bar(k_mod, A, k_mod, window)
            deltas.append(
                _delta(
                    "two_sided_bar(k,A,k)",
                    B.homology_dims(window, weights),
                    betti_table,
                )
            )
    elif task == "twisted-hh":
        betti_table = C.homology_dims(window, None)
        oracle = hh.periodic_resolution_dims(  # A = k[x]/x^N, of dim N
            A.dim, _twist_scalar(spec), window, coefficients
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
            from . import cech

            cone_dims = cech.cone_gluing_dims(coefficients)
            deltas.append(
                _delta("cone_excision_gluing", cone_dims,
                       per_degree(betti_table, window))
            )
    elif task == "cup-table":
        from . import products

        A = build_algebra(spec["algebra"], coefficients, weights)
        table, ok = products.cup_table(A, spec["cap"])
        extra["cup_table"] = table
        extra["max_block"] = 0
        deltas.append({"name": "cup_chain_level_axioms", "delta": 0 if ok else 1})
    elif task == "shuffle-check":
        from . import products

        ok, checked = products.shuffle_check(Y, A, C, spec)
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
    degree, _, weight = key.partition(",")
    return int(degree), int(weight or 0)


def _delta(name, expected, got):
    exp = {k: v for k, v in expected.items() if v}
    g = {k: v for k, v in got.items() if v}
    mismatches = 0
    for k in set(exp) | set(g):
        if exp.get(k, 0) != g.get(k, 0):
            mismatches += 1
    return {"name": name, "delta": mismatches}


def _hkr_descriptor(desc):
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
    the bases of its two complexes under the cap, and a ``cup-table``
    counts the triples of its associativity check against it, as ``run``
    does first; both are otherwise only noted.
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
    elif task == "cup-table":
        from . import products

        products.cup_labels(
            build_algebra(spec["algebra"], parse_coefficients(spec), weights),
            cap,
        )
    if task not in CHAIN_TASKS + BUILT_TASKS:
        return {"job": _echo(spec), "note": "explain supports chain tasks"}
    coefficients = parse_coefficients(spec)
    report = {"job": _echo(spec), "cap": cap}
    if task in CHAIN_TASKS:
        Y, A, module = _chain_inputs(spec, coefficients)
    if task in BUILT_TASKS or module is not None and not module.symmetric:
        report["max_block"] = _build(spec, coefficients)[3]
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
        import json

        return json.dumps(report, indent=2, sort_keys=True, default=str)
    lines = [f"task: {report['job']['task']}"]
    if "note" in report:  # a task that explain only notes
        lines.append(f"note: {report['note']}")
        return "\n".join(lines) + "\n"
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
    import argparse
    import json

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
