"""The benchmark's workloads: inputs made from a seed, one sample, its oracle.

A workload's ``spec(seed)`` is its JSON-able input.  ``setup`` parses it
and builds its space and algebra, which is what a user waits for before a
job starts.  ``oracle`` computes, outside any timed region, what a sample
is checked against.  A sample is ``check(sample(state, oracle), oracle)``:
it starts from the parsed spec and ends with a verified result.

Calls into hoch go through module attributes (``cli.run_job``, not a
``from`` import) so that the traced run's wrappers see every call.
"""

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from hoch import cli, dga, hochschild, products, simp
from hoch.homalg import Coefficients
from hoch.linalg import SubquotientSpace


@dataclass(frozen=True)
class Workload:
    spec: Callable  # seed -> JSON-able input
    setup: Callable  # spec -> state (parsed spec, space and algebra built)
    oracle: Callable  # (spec, state) -> what a correct sample yields
    sample: Callable  # (state, oracle) -> output
    check: Callable  # (output, oracle) -> bool
    explain: Optional[Callable] = None  # state -> predicted level dims


# -- the CLI workloads: cli.run_job on a parsed job spec ----------------------

SPHERE3_HKR = {  # the golden job criterion05b
    "schema": 1,
    "task": "hkr-check",
    "algebra": {"name": "polynomial"},
    "space": {"name": "sphere-small", "d": 3},
    "window": [-10, 0],
    "weights": [1, 2, 3],
}

CIRCLE_TRUNC3 = {
    "schema": 1,
    "task": "homology",
    "algebra": {"name": "truncated-polynomial", "truncation": 3},
    "space": {"name": "circle"},
    "window": [-8, 0],
}


def _is_prime(n):
    """Miller-Rabin with bases 2, 3, 5, 7: exact for odd 7 < n < 3.2e9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def torus_fp_spec(seed):
    """HKR on the torus over F_p, p a prime in [2^30, 2^31] picked by seed.

    Any p above the largest weight (4) keeps the HKR prediction exact.
    """
    p = random.Random(seed).randrange(2**30, 2**31) | 1
    while not _is_prime(p):
        p += 2
    return {
        "schema": 1,
        "task": "hkr-check",
        "algebra": {"name": "polynomial"},
        "space": {"name": "torus"},
        "window": [-3, 0],
        "weights": [0, 1, 2, 3, 4],
        "coefficients": f"Fp:{p}",
    }


def cli_setup(raw):
    spec = cli.load_jobspec(raw)
    algebra = cli.build_algebra(
        spec["algebra"], cli.parse_coefficients(spec), spec["weights"]
    )
    cli.build_space(
        spec["space"], cli.space_level_for(spec, algebra, spec["space"])
    )
    return spec


def cli_sample(spec, _oracle):
    return cli.run_job(spec)


def cli_explain(spec):
    return cli.explain_job(spec)["level_dims"]


def _betti(report):
    return {(e["degree"], e["weight"]): e["dim"] for e in report["betti"]}


def hkr_oracle(space):
    def oracle(_raw, spec):
        return hochschild.hkr_prediction(
            "polynomial", space, spec["window"], spec["weights"]
        )

    return oracle


def hkr_check(report, expected):
    return report["verdict"] == "pass" and _betti(report) == expected


def periodic_oracle(_raw, spec):
    """Per-degree Betti numbers from the 2-periodic resolution."""
    return hochschild.periodic_resolution_dims(
        spec["algebra"]["truncation"], 1, spec["window"]
    )


def per_degree_check(report, expected):
    got = dict.fromkeys(expected, 0)
    for (degree, _w), dim in _betti(report).items():
        got[degree] = got.get(degree, 0) + dim
    return report["verdict"] == "pass" and got == expected


# -- wedge-cochains: associativity of the wedge product, through the library --


@dataclass(frozen=True)
class Triple:
    """Compare [μ(μ(f,g),h)] · scale with [μ(f2,μ(g2,h2))] in ``degree``.

    f2, g2, h2 are other representatives of multiples of the classes of
    f, g, h; ``scale`` is the product of those multiples.
    """

    f: dict
    g: dict
    h: dict
    f2: dict
    g2: dict
    h2: dict
    scale: object
    degree: int


def wedge_spec(seed):
    # top 4 keeps one sample at a couple of seconds; every compared class
    # has degree <= top - 1, so it and its differential are certified.
    return {"top": 4, "truncation": 2, "seed": seed}


def _wedge_spaces(top):
    circle = simp.circle(top)
    two = simp.wedge(circle, circle)
    return circle, two, simp.wedge(two, circle), simp.wedge(circle, two)


def _wedge_algebra(raw):
    algebra = dga.truncated_polynomial(Coefficients(), raw["truncation"])
    return algebra, dga.algebra_as_bimodule(algebra)


def wedge_setup(raw):
    _wedge_algebra(raw)
    _wedge_spaces(raw["top"])
    return raw


def _cochains(raw, spaces):
    algebra, module = _wedge_algebra(raw)
    top = raw["top"]
    return [
        products.CochainComplexData(Y, algebra, module, (0, top - 1), top)
        for Y in spaces
    ]


def wedge_oracle(raw, _state):
    """Seeded representatives for every triple of S¹ cocycle classes whose
    product lands in degree top - 2 or top - 1."""
    top = raw["top"]
    rng = random.Random(raw["seed"])
    (circle,) = _cochains(raw, [simp.circle(top)])
    C = circle.complex
    field = C.coefficients.field
    reps = {}
    for degree in range(top):
        d_in = C.d_matrix(degree - 1, 0) if C.dim(degree - 1, 0) else None
        labels = C.blocks[(degree, 0)]
        space = SubquotientSpace(C.d_matrix(degree, 0), d_in, field)
        reps[degree] = [
            {labels[i]: v for i, v in rep.items()} for rep in space.reps
        ]

    def other_rep(rep, degree):
        """A random multiple of rep's class, moved by a random coboundary."""
        scale = field.coerce(rng.choice((1, 2, 3, -1, -2)))
        out = {k: field.mul(scale, v) for k, v in rep.items()}
        below = C.blocks.get((degree - 1, 0), [])
        if below:
            chain = {
                label: field.coerce(rng.choice((-2, -1, 1, 2)))
                for label in rng.sample(below, rng.randint(1, len(below)))
            }
            for k, v in C.d_apply(chain).items():
                acc = field.add(out.get(k, field.zero), v)
                if field.is_zero(acc):
                    out.pop(k, None)
                else:
                    out[k] = acc
        return out, scale

    triples = []
    for degrees in product(range(top), repeat=3):
        if sum(degrees) not in (top - 2, top - 1):
            continue
        for f, g, h in product(*(reps[d] for d in degrees)):
            moved = [other_rep(r, d) for r, d in zip((f, g, h), degrees)]
            scale = field.one
            for _rep, s in moved:
                scale = field.mul(scale, s)
            (f2, _), (g2, _), (h2, _) = moved
            triples.append(Triple(f, g, h, f2, g2, h2, scale, sum(degrees)))
    return triples


def wedge_sample(raw, triples):
    """Build the four cochain complexes, then compare every triple."""
    d1, d2, d3a, d3b = _cochains(raw, _wedge_spaces(raw["top"]))
    C3 = d3a.complex
    field = C3.coefficients.field
    subquotients = {}
    verdicts = []
    for t in triples:
        left = products.wedge_product(
            d2, d1, d3a, products.wedge_product(d1, d1, d2, t.f, t.g), t.h
        )
        right = products.wedge_product(
            d1, d2, d3b, t.f2, products.wedge_product(d1, d1, d2, t.g2, t.h2)
        )
        if t.degree not in subquotients:
            labels = C3.blocks[(t.degree, 0)]
            subquotients[t.degree] = (
                SubquotientSpace(
                    C3.d_matrix(t.degree, 0), C3.d_matrix(t.degree - 1, 0),
                    field,
                ),
                {label: i for i, label in enumerate(labels)},
            )
        space, pos = subquotients[t.degree]
        lv = {pos[k]: field.mul(t.scale, v) for k, v in left.items()}
        rv = {pos[k]: v for k, v in right.items()}
        verdicts.append(space.same_class(lv, rv))
    return verdicts


def wedge_check(verdicts, triples):
    return len(verdicts) == len(triples) and all(verdicts)


WORKLOADS = {
    "sphere3-hkr": Workload(
        lambda _seed: SPHERE3_HKR, cli_setup, hkr_oracle(("sphere", 3)),
        cli_sample, hkr_check, cli_explain,
    ),
    "circle-trunc3": Workload(
        lambda _seed: CIRCLE_TRUNC3, cli_setup, periodic_oracle,
        cli_sample, per_degree_check, cli_explain,
    ),
    "torus-fp": Workload(
        torus_fp_spec, cli_setup, hkr_oracle(("surface", 1)),
        cli_sample, hkr_check, cli_explain,
    ),
    "wedge-cochains": Workload(
        wedge_spec, wedge_setup, wedge_oracle, wedge_sample, wedge_check,
    ),
}
