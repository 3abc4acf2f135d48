"""The batch front door: schema, exit codes, determinism, golden jobs."""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hoch import classical, cli
from hoch import hochschild as hh

JOBS = Path(__file__).resolve().parent.parent / "jobs"
GOLDEN = Path(__file__).resolve().parent / "golden"

BASE = {
    "schema": 1,
    "task": "homology",
    "algebra": {"name": "truncated-polynomial", "truncation": 2},
    "space": {"name": "circle"},
    "window": [-4, 0],
    "output": "json",
}


def run_spec(raw):
    spec = cli.load_jobspec(copy.deepcopy(raw))
    return cli.run_job(spec)


def test_schema_version_required():
    bad = dict(BASE)
    bad.pop("schema")
    with pytest.raises(cli.SchemaError):
        cli.load_jobspec(bad)


def test_unknown_field_rejected():
    for field in ("surprise", "threads"):
        bad = dict(BASE)
        bad[field] = 1
        with pytest.raises(cli.SchemaError, match="unknown fields"):
            cli.load_jobspec(bad)


def test_schema_lists_the_top_fields():
    schema = json.loads((JOBS / "schema.json").read_text())
    assert set(schema["properties"]) == cli._TOP_FIELDS


def test_bad_window_rejected():
    bad = dict(BASE)
    bad["window"] = [0, -4]
    with pytest.raises(cli.SchemaError):
        cli.load_jobspec(bad)
    bad["window"] = "0..4"
    with pytest.raises(cli.SchemaError):
        cli.load_jobspec(bad)


def test_unknown_task_rejected():
    bad = dict(BASE)
    bad["task"] = "frobnicate"
    with pytest.raises(cli.SchemaError):
        cli.load_jobspec(bad)


def test_run_basic_homology_report():
    report = run_spec(BASE)
    assert report["verdict"] == "pass"
    per_degree = {}
    for e in report["betti"]:
        per_degree[e["degree"]] = per_degree.get(e["degree"], 0) + e["dim"]
    assert per_degree == {0: 2, -1: 1, -2: 1, -3: 1, -4: 1}
    assert report["max_block"] > 0
    assert "wall_time_s" in report and "timestamp" in report


def test_expectation_failure_gives_fail_verdict():
    raw = dict(BASE)
    raw["expect_per_degree"] = {"0": 99}
    report = run_spec(raw)
    assert report["verdict"] == "fail"


def test_determinism_modulo_timestamp():
    a = run_spec(BASE)
    b = run_spec(BASE)
    for volatile in ("timestamp", "wall_time_s"):
        a.pop(volatile), b.pop(volatile)
    assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
        b, sort_keys=True, default=str
    )


def test_inline_algebra_presentation():
    raw = dict(BASE)
    raw["algebra"] = {
        "label": "k[x]/x^2 inline",
        "basis": [
            {"label": "1", "degree": 0, "weight": 0},
            {"label": "x", "degree": 0, "weight": 1},
        ],
        "unit": "1",
        "mult": [
            ["1", "1", {"1": "1"}],
            ["1", "x", {"x": "1"}],
            ["x", "1", {"x": "1"}],
            ["x", "x", {}],
        ],
        "augmentation": {"1": "1"},
        "weight_graded": True,
    }
    report = run_spec(raw)
    per_degree = {}
    for e in report["betti"]:
        per_degree[e["degree"]] = per_degree.get(e["degree"], 0) + e["dim"]
    assert per_degree == {0: 2, -1: 1, -2: 1, -3: 1, -4: 1}


def test_bad_inline_presentation_is_schema_error():
    raw = dict(BASE)
    raw["algebra"] = {
        "basis": [{"label": "1", "degree": 0}],
        "unit": "1",
        "mult": [["1", "1", {"1": "2"}]],  # broken unit law
    }
    with pytest.raises(cli.SchemaError):
        run_spec(raw)


def test_fp_rejects_a_constant_with_denominator_p(tmp_path):
    # over F_3 the constant 1/3 used to be read as 0, which ran the job
    # for x·x = 0 and passed
    raw = dict(BASE, coefficients="Fp:3", window=[-2, 0])
    mult = [["1", "1", {"1": "1"}], ["x", "x", {"y": "1/3"}]]
    for a in ("x", "y"):
        mult += [["1", a, {a: "1"}], [a, "1", {a: "1"}]]
    mult += [["x", "y", {}], ["y", "x", {}], ["y", "y", {}]]
    raw["algebra"] = {
        "basis": [
            {"label": "1", "degree": 0, "weight": 0},
            {"label": "x", "degree": 0, "weight": 1},
            {"label": "y", "degree": 0, "weight": 2},
        ],
        "unit": "1",
        "mult": mult,
        "augmentation": {"1": "1"},
        "weight_graded": True,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 2
    raw["coefficients"] = "Fp:5"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 0


def test_fp_coefficients():
    raw = dict(BASE)
    raw["coefficients"] = "Fp:5"
    report = run_spec(raw)
    assert report["verdict"] == "pass"


def test_cap_infeasible(tmp_path):
    raw = {
        "schema": 1,
        "task": "homology",
        "algebra": {"name": "polynomial"},
        "space": {"name": "torus"},
        "window": [-4, 0],
        "weights": [2],
        "cap": 5,
    }
    spec = cli.load_jobspec(copy.deepcopy(raw))
    with pytest.raises(cli.InfeasibleError):
        cli.run_job(spec)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 3


def test_explain_reports_builder_dims(tmp_path, capsys):
    raw = dict(BASE)
    raw["space"] = {"name": "circle", "level": 6}
    raw["window"] = [-4, 0]
    spec = cli.load_jobspec(raw)
    report = cli.explain_job(spec)
    # normalized circle dims for a dim-2 algebra: 2 * 1 per level
    assert report["level_dims"][:4] == [2, 2, 2, 2]
    assert report["truncation_level"] == 5
    # explain twice: side-effect free
    assert cli.explain_job(spec)["level_dims"] == report["level_dims"]


def test_explain_infeasible():
    # k[x]/x^3 on the circle: its largest (degree, weight) block has 25
    # elements, and both commands refuse a cap below that
    raw = dict(BASE, algebra={"name": "truncated-polynomial", "truncation": 3})
    assert cli.explain_job(cli.load_jobspec(dict(raw)))["max_block"] == 25
    raw["cap"] = 24
    with pytest.raises(cli.InfeasibleError):
        cli.explain_job(cli.load_jobspec(dict(raw)))
    with pytest.raises(cli.InfeasibleError):
        run_spec(raw)


CHAIN_JOBS = sorted(
    p.name for p in JOBS.glob("criterion*.json")
    if json.loads(p.read_text())["task"] in cli.CHAIN_TASKS
)


BUILT_JOBS = sorted(
    p.name for p in JOBS.glob("*.json")
    if json.loads(p.read_text()).get("task") in cli.BUILT_TASKS
)


def test_golden_chain_jobs_listed():
    assert len(CHAIN_JOBS) == 8


def test_golden_built_jobs_listed():
    assert BUILT_JOBS == [
        "criterion08a_twisted.json", "criterion08b_twisted_identity.json",
        "criterion09a_iterated_bar_exterior.json",
        "criterion09b_iterated_bar_trunc.json", "criterion09c_double_bar.json",
        "criterion10_cosheaf_cech.json", "criterion11a_shuffle_check.json",
        "extra_tensor_cech.json",
    ]


@pytest.mark.parametrize("job", CHAIN_JOBS + BUILT_JOBS)
def test_explain_and_run_agree_on_the_cap(job, capsys):
    # one rule: a (degree, weight) block of the total complex larger than
    # the cap; explain predicts the largest block that run then reports
    path = str(JOBS / job)
    assert cli.main(["explain", path, "--format", "json"]) == 0
    explained = json.loads(capsys.readouterr().out)
    largest = explained["max_block"]
    assert cli.main(["run", path, "--format", "json", "--cap", str(largest)]) == 0
    assert json.loads(capsys.readouterr().out)["max_block"] == largest
    assert cli.main(["explain", path, "--cap", str(largest)]) == 0
    if largest > 1:
        for cmd in ("run", "explain"):
            assert cli.main([cmd, path, "--cap", str(largest - 1)]) == 3


def test_shuffle_check_holds_the_cap(tmp_path, capsys):
    # k[x]/x^3 on the circle: the largest block of the total complex has 25
    # elements, whatever the task that builds it
    raw = dict(BASE, task="shuffle-check", trials=2,
               algebra={"name": "truncated-polynomial", "truncation": 3})
    path = tmp_path / "shuffle.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path), "--cap", "25"]) == 0, cmd
        assert json.loads(capsys.readouterr().out)["max_block"] == 25
        assert cli.main([cmd, str(path), "--cap", "24"]) == 3, cmd


def test_bar_job_agrees_at_its_largest_block():
    # the level sizes (1152 on the top level) are not the rule
    path = str(JOBS / "criterion02_bar_acyclicity.json")
    for cap, code in ((500, 0), (245, 0), (244, 3)):
        for cmd in ("run", "explain"):
            assert cli.main([cmd, path, "--cap", str(cap)]) == code, (cmd, cap)


def _no_faces(monkeypatch):
    """Fail the test as soon as a face program is compiled or run."""
    def no_faces(*args, **kwargs):
        raise AssertionError("a face map was built")

    monkeypatch.setattr(hh, "compile_setmap", no_faces)


def test_infeasible_job_builds_no_face(monkeypatch):
    _no_faces(monkeypatch)
    path = str(JOBS / "criterion05b_hkr_sphere3.json")  # largest block 945
    assert cli.main(["run", path, "--cap", "900"]) == 3
    assert cli.main(["explain", path, "--cap", "900"]) == 3


def test_infeasible_iterated_bar_builds_no_face(monkeypatch, capsys):
    path = str(JOBS / "criterion09c_double_bar.json")
    assert cli.main(["explain", path, "--format", "json"]) == 0
    largest = json.loads(capsys.readouterr().out)["max_block"]
    assert largest > 1

    _no_faces(monkeypatch)
    for cmd in ("run", "explain"):
        assert cli.main([cmd, path, "--cap", str(largest - 1)]) == 3, cmd


def _no_classical_faces(monkeypatch):
    """Fail the test as soon as a face of a classical complex is set."""
    def no_faces(*args):
        raise AssertionError("a classical face was set")

    monkeypatch.setattr(classical, "_add_if", no_faces)


def test_infeasible_excision_check_builds_no_face(tmp_path, monkeypatch,
                                                  capsys):
    # k[x]/x^3 in [-4, 0]: the enveloping Bar complex has a block of
    # 46,996 elements, refused under the default cap once its basis is
    # laid out, before any face
    raw = json.loads((JOBS / "criterion04a_excision_trunc.json").read_text())
    raw.update(algebra={"name": "truncated-polynomial", "truncation": 3},
               window=[-4, 0])
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    _no_faces(monkeypatch)
    _no_classical_faces(monkeypatch)
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 3, cmd
        assert capsys.readouterr().err == (
            "infeasible: largest (degree, weight) block has dimension 46996 "
            "> cap 20000\n"
        )


def test_infeasible_twisted_hh_builds_no_face(tmp_path, monkeypatch, capsys):
    raw = json.loads((JOBS / "criterion08a_twisted.json").read_text())
    raw["algebra"]["truncation"] = 4
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["explain", str(path), "--format", "json"]) == 0
    largest = json.loads(capsys.readouterr().out)["max_block"]
    assert largest > 1

    _no_classical_faces(monkeypatch)
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path), "--cap", str(largest - 1)]) == 3, cmd


@pytest.mark.parametrize("space", [
    {"name": "sphere-small", "d": 4}, {"name": "circle"},
    {"name": "interval"}, {"name": "torus"},
])
def test_run_and_explain_refuse_a_weight_past_max_weight(tmp_path, capsys,
                                                         space):
    # k[x] materialized through weight 1 cannot fold the weight-2 chains
    raw = dict(BASE, space=space, window=[-3, 0], weights=[2],
               algebra={"name": "polynomial", "max_weight": 1})
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 2, cmd
        assert capsys.readouterr().err == (
            "schema error: k[x]: weight 2 exceeds materialized weight 1\n"
        )


def test_bar_ignores_the_space_in_both_commands():
    raw = {
        "schema": 1,
        "task": "bar",
        "algebra": {"name": "truncated-polynomial", "truncation": 3},
        "window": [-3, 0],
    }
    plain = cli.explain_job(cli.load_jobspec(dict(raw)))
    spaced = dict(raw, space={"name": "circle"})
    explained = cli.explain_job(cli.load_jobspec(dict(spaced)))
    assert explained["level_dims"] == plain["level_dims"]
    assert explained["level_dims"][:3] == [9, 18, 36]  # the interval's
    assert run_spec(spaced)["max_block"] == explained["max_block"]


def test_explain_follows_run_to_the_classical_complex():
    # self coefficients over a noncommutative algebra are a genuine
    # bimodule: over the circle both commands size the classical complex
    mult = [["1", a, {a: "1"}] for a in "1xyz"]
    mult += [[a, "1", {a: "1"}] for a in "xyz"] + [["x", "y", {"z": "1"}]]
    basis = [("1", 0), ("x", 1), ("y", 1), ("z", 2)]
    raw = dict(BASE, module="self", window=[-3, 0], algebra={
        "basis": [{"label": a, "degree": 0, "weight": w} for a, w in basis],
        "unit": "1", "mult": mult, "commutative": False,
        "weight_graded": True,
    })
    explained = cli.explain_job(cli.load_jobspec(dict(raw)))
    assert "level_dims" not in explained
    assert explained["max_block"] == run_spec(raw)["max_block"] == 104
    raw["cap"] = 103
    with pytest.raises(cli.InfeasibleError):
        cli.explain_job(cli.load_jobspec(dict(raw)))
    with pytest.raises(cli.InfeasibleError):
        run_spec(raw)


def test_space_below_the_required_level_is_a_schema_error(tmp_path):
    raw = dict(BASE, space={"name": "circle", "level": 2})  # needs 5
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 2


def test_empty_weights_are_refused_by_run_and_explain(tmp_path, capsys):
    raw = json.loads((JOBS / "criterion05b_hkr_sphere3.json").read_text())
    raw["weights"] = []
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 2
        assert capsys.readouterr().err == (
            "schema error: weights must name at least one weight\n"
        )


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2


INLINE = {
    "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 0,
                                            "weight": 1}],
    "unit": "1",
    "mult": [["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}],
             ["x", "1", {"x": "1"}], ["x", "x", {}]],
}


@pytest.mark.parametrize("field, value, message", [
    ("space", "circle", "space must be an object"),
    ("algebra", {**INLINE, "mult": INLINE["mult"] + [["x", "y", {}]]},
     "undeclared basis label 'y'"),
    ("algebra", {**INLINE, "basis": [{"label": "1", "degree": 0},
                                     {"label": "x", "weight": 1}]},
     "'degree' is required"),
    ("algebra", {"name": "truncated-polynomial", "truncation": "3"},
     "truncation must be an integer >= 2, not '3'"),
], ids=["space-string", "undeclared-label", "basis-without-degree",
        "truncation-string"])
def test_malformed_descriptor_is_a_schema_error(tmp_path, capsys, field,
                                                value, message):
    # exit 1 is a failing oracle; a descriptor that breaks the rules of
    # jobs/schema.json exits 2, from run and explain alike
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**BASE, field: value}))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and message in err


def _job(name, **changes):
    """A golden job spec with some top-level or cover fields replaced."""
    raw = json.loads((JOBS / name).read_text())
    cover = changes.pop("cover", {})
    raw.update(changes)
    raw.get("cover", {}).update(cover)
    return raw


@pytest.mark.parametrize("raw, message", [
    (_job("criterion08a_twisted.json", automorphism=3),
     "automorphism must be an object, not 3"),
    (_job("criterion09a_iterated_bar_exterior.json", iterations="2"),
     "iterations must be an integer >= 0, not '2'"),
    (_job("criterion11a_shuffle_check.json", trials="3"),
     "trials must be an integer >= 1, not '3'"),
    ({**BASE, "module": 5}, "module must be 'self', not 5"),
    ({**BASE, "coefficients": 5}, "coefficients must be a string"),
    (_job("criterion10_cosheaf_cech.json", cover={"truncation": "2"}),
     "truncation must be an integer >= 0, not '2'"),
    (_job("criterion10_cosheaf_cech.json", cover={"arcs": [[0, [1]]]}),
     "an arc start must be a string 'p/q', not 0"),
    *((_job("criterion10_cosheaf_cech.json",
            cover={"ambient": "interval", "opens": [bad]}),
       "opens must be a list of ['r', s], ['m', t, u] or ['l', t] lists")
      for bad in (5, "r", ["z", "1/2"], ["m", "1/2"])),
    (_job("criterion10_cosheaf_cech.json",
          cover={"ambient": "interval", "opens": [["r", 1]]}),
     "an interval endpoint must be a string 'p/q', not 1"),
    ({**BASE, "algebra": {**INLINE, "mult": INLINE["mult"] + [5]}},
     "mult must be a list of [a, b, {label: c}] lists"),
    ({**BASE, "algebra": {**INLINE, "augmentation": {"1": [1]}}},
     "a coefficient must be a string 'p/q', not [1]"),
    ({**BASE, "expect": [1]}, "expect must be an object, not [1]"),
    ({**BASE, "expect_per_degree": [1]},
     "expect_per_degree must be an object, not [1]"),
    ({**BASE, "expect": {"0": "one"}},
     "expect['0'] must be an integer >= 0, not 'one'"),
    ({**BASE, "expect": {"0,1": -1}},
     "expect['0,1'] must be an integer >= 0, not -1"),
    ({**BASE, "expect_per_degree": {"0": True}},
     "expect_per_degree['0'] must be an integer >= 0, not True"),
    ({**BASE, "expect": {"0,0,7": 1}},
     'expect keys must be "d" or "d,w", not \'0,0,7\''),
    ({**BASE, "expect": {"x": 1}}, 'expect keys must be "d" or "d,w"'),
    ({**BASE, "expect_per_degree": {"0,0": 1}},
     'expect_per_degree keys must be "d", not \'0,0\''),
    ({**BASE, "cap": True}, "cap must be a positive int"),
    ({**BASE, "window": [False, True]}, "window must be [lo, hi]"),
    ({**BASE, "weights": [True]},
     "weights must be a list of non-negative ints"),
    # periodic_resolution_dims is the twisted HH of k[x]/x^N, |x| = 0
    *((_job("criterion08a_twisted.json", algebra=algebra),
       "twisted-hh needs a truncated-polynomial algebra of degree 0")
      for algebra in ({"name": "exterior"},
                      {"name": "truncated-polynomial", "degree": -2},
                      {**INLINE, "weight_graded": True})),
], ids=["automorphism-int", "iterations-string", "trials-string",
        "module-int", "coefficients-int", "cover-truncation-string", "cover-arc-not-strings",
        "cover-open-int", "cover-open-kind-alone", "cover-open-unknown-kind",
        "cover-open-middle-one-end", "cover-open-endpoint-int",
        "mult-entry-not-a-list", "coefficient-not-a-string",
        "expect-list", "expect-per-degree-list", "expect-value-string",
        "expect-value-negative", "expect-per-degree-value-bool",
        "expect-key-three-parts", "expect-key-not-a-number",
        "expect-per-degree-key-with-weight", "cap-bool", "window-bools",
        "weights-bool", "twisted-exterior", "twisted-degree-2",
        "twisted-inline"])
def test_mistyped_field_is_a_schema_error(tmp_path, capsys, raw, message):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and message in err


def _units(labels):
    """The unit rows of an inline multiplication table."""
    return [["1", lab, {lab: "1"}] for lab in labels] + [
        [lab, "1", {lab: "1"}] for lab in labels if lab != "1"]


# ab = c, ba = 0: its centre is span{1, c}, not the whole algebra
NONCOMMUTATIVE = {
    "basis": [{"label": "1", "degree": 0},
              {"label": "a", "degree": 0, "weight": 1},
              {"label": "b", "degree": 0, "weight": 1},
              {"label": "c", "degree": 0, "weight": 2}],
    "unit": "1", "weight_graded": True, "commutative": False,
    "mult": _units(["1", "a", "b", "c"]) + [["a", "b", {"c": "1"}]],
}

# tests_support.koszul_algebra: k[x]/x^2 ⊗ Λ(e) with de = x
KOSZUL = {
    "basis": [{"label": "1", "degree": 0},
              {"label": "x", "degree": 0, "weight": 1},
              {"label": "e", "degree": -1, "weight": 1},
              {"label": "xe", "degree": -1, "weight": 2}],
    "unit": "1", "weight_graded": True, "augmentation": {"1": "1"},
    "mult": _units(["1", "x", "e", "xe"])
    + [["x", "e", {"xe": "1"}], ["e", "x", {"xe": "1"}]],
    "differential": [["e", {"x": "1"}]],
}

CUP = "cup-table needs an exterior or truncated-polynomial algebra"


@pytest.mark.parametrize("raw, message", [
    (_job("criterion11b_cup_table.json", algebra=NONCOMMUTATIVE), CUP),
    (_job("criterion11b_cup_table.json", algebra=KOSZUL), CUP),
    (_job("criterion11b_cup_table.json", algebra={"name": "polynomial"}),
     CUP),
    *(({k: v for k, v in _job(name).items() if k != "algebra"},
       f"{task} needs an algebra")
      for name, task in (
          ("criterion03_circle_classical.json", "homology"),
          ("criterion05b_hkr_sphere3.json", "hkr-check"),
          ("criterion02_bar_acyclicity.json", "bar"),
          ("criterion09a_iterated_bar_exterior.json", "iterated-bar"),
          ("criterion08a_twisted.json", "twisted-hh"),
          ("criterion04a_excision_trunc.json", "excision-check"),
          ("extra_tensor_cech.json", "cech"),
          ("criterion11b_cup_table.json", "cup-table"),
          ("criterion11a_shuffle_check.json", "shuffle-check"))),
    (_job("criterion05b_hkr_sphere3.json",
          algebra={"name": "truncated-polynomial"}),
     "hkr-check needs a polynomial or exterior algebra"),
    (_job("criterion05b_hkr_sphere3.json", space={"name": "circle"}),
     "hkr-check needs a sphere or surface model"),
], ids=["cup-noncommutative", "cup-koszul", "cup-polynomial",
        "homology-no-algebra", "hkr-no-algebra", "bar-no-algebra",
        "iterated-bar-no-algebra", "twisted-no-algebra",
        "excision-no-algebra", "cech-arc-algebra-no-algebra",
        "cup-no-algebra", "shuffle-no-algebra", "hkr-truncated",
        "hkr-circle"])
def test_run_and_explain_refuse_what_the_task_cannot_read(tmp_path, capsys,
                                                          raw, message):
    # an algebra or a space that the task cannot read is a schema error
    # (exit 2) from run and explain alike, not a failed oracle (exit 1)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and message in err, err


@pytest.mark.parametrize("algebra, labels", [
    ({"name": "exterior"}, ["1", "x"]),
    ({**INLINE, "weight_graded": True}, ["1", "x"]),
], ids=["exterior", "inline-commutative"])
def test_cup_table_reports_a_commutative_algebra(algebra, labels):
    raw = _job("criterion11b_cup_table.json", algebra=algebra)
    report = run_spec(raw)
    assert report["verdict"] == "pass"
    assert report["cup_table"]["hh0_basis"] == labels


def test_infeasible_cech_builds_no_face(monkeypatch):
    # the level bases add up to a total block of 1,722 elements, refused
    # before any face is built
    from hoch import cech

    def no_faces(*args):
        raise AssertionError("a Čech face was built")

    monkeypatch.setattr(cech, "_face_image", no_faces)
    path = str(JOBS / "criterion10_cosheaf_cech.json")
    for cmd in ("run", "explain"):
        assert cli.main([cmd, path, "--cap", "1000"]) == 3, cmd


def test_infeasible_cup_table_takes_no_cup(tmp_path, monkeypatch, capsys):
    # k[x]/x^5 has (1 + 4 + 16)·5 = 105 basis cochains of arity <= 2, so
    # its associativity check would take 105³ triples: refused before any
    # cup by both commands
    from hoch import products

    def no_cups(*args):
        raise AssertionError("a cup was taken")

    monkeypatch.setattr(products, "cup", no_cups)
    raw = _job("criterion11b_cup_table.json",
               algebra={"name": "truncated-polynomial", "truncation": 5})
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    for cmd in ("run", "explain"):
        assert cli.main([cmd, str(path)]) == 3, cmd
        assert capsys.readouterr().err == (
            "infeasible: cup-table checks 1157625 triples of basis cochains "
            "> cap 20000\n"
        )


def test_cup_table_cap_bounds_the_triples(capsys):
    # criterion11b's 6 basis cochains make 216 triples
    path = str(JOBS / "criterion11b_cup_table.json")
    for cmd in ("run", "explain"):
        assert cli.main([cmd, path, "--cap", "215"]) == 3, cmd
        assert cli.main([cmd, path, "--cap", "216"]) == 0, cmd
    capsys.readouterr()


def test_expect_keys_read_degree_and_weight():
    # "d" is the weight-0 entry of degree d; "d,w" the entry of weight w
    want = {"0": 1, "0,1": 1, "-1,1": 1, "-2,3": 1, "-3,3": 1, "-4,5": 1}
    report = run_spec({**BASE, "expect": want})
    assert report["verdict"] == "pass"
    report = run_spec({**BASE, "expect": {**want, "-1": 1, "-1,1": 0}})
    assert report["oracles"] == [{"name": "expected_betti", "delta": 2}]
    assert report["verdict"] == "fail"


def test_hkr_check_without_a_space_is_a_schema_error(tmp_path, capsys):
    raw = json.loads((JOBS / "criterion05b_hkr_sphere3.json").read_text())
    del raw["space"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 2
    assert "hkr-check needs a sphere or surface model" in (
        capsys.readouterr().err)


def test_unknown_field_exit_code(tmp_path):
    raw = dict(BASE)
    raw["mystery"] = True
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 2


def test_flag_overrides(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(BASE))
    code = cli.main(
        ["run", str(path), "--window=-2..0", "--format", "json",
         "--coefficients", "Q"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["job"]["window"] == [-2, 0]


def test_cli_subprocess_smoke(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(BASE))
    proc = subprocess.run(
        [sys.executable, "-m", "hoch.cli", "run", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"verdict": "pass"' in proc.stdout


def test_importing_the_cli_leaves_cech_unloaded():
    # cech is imported by the cech and excision-check tasks alone, and
    # products by the cup-table and shuffle-check tasks alone
    lazy = ("hoch.cech", "hoch.products")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, hoch.cli; print([m in sys.modules for m in {lazy}])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


# the modules of the package that a chain task loads, and no others
CHAIN_PATH = ["hoch", "hoch.cli", "hoch.dga", "hoch.hochschild",
              "hoch.homalg", "hoch.linalg", "hoch.simp"]


def test_chain_jobs_load_only_the_chain_path():
    # a fresh process compiles every module it loads: run and explain a
    # chain job of each kind there, and list the package's modules
    script = (
        "import json, sys\n"
        "from hoch import cli\n"
        "for job in sys.argv[1:]:\n"
        "    with open(job) as handle:\n"
        "        spec = cli.load_jobspec(json.load(handle))\n"
        "    assert cli.run_job(spec)['verdict'] == 'pass', job\n"
        "    cli.explain_job(spec)\n"
        "print(json.dumps(sorted(\n"
        "    m for m in sys.modules if m.partition('.')[0] == 'hoch')))\n"
    )
    jobs = [str(JOBS / "criterion05b_hkr_sphere3.json"),
            str(JOBS / "criterion02_bar_acyclicity.json")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *jobs], capture_output=True,
        text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                            PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == CHAIN_PATH


def test_cover_error_is_a_schema_error(tmp_path, capsys):
    raw = json.loads((JOBS / "criterion10_cosheaf_cech.json").read_text())
    raw["cover"]["arcs"] = [["0", "3/5"]]  # an arc longer than half a turn
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema error: ")


def test_excision_check_refuses_a_per_weight_algebra(tmp_path, capsys):
    raw = json.loads((JOBS / "criterion04a_excision_trunc.json").read_text())
    raw["algebra"] = {"name": "polynomial"}
    raw["weights"] = [1, 2]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: k[x]: the enveloping algebra")
    assert "materialized per weight" in err


GOLDEN_JOBS = sorted(
    p.name for p in JOBS.glob("*.json")
    if p.name.startswith(("criterion", "extra"))
)


def _snapshot(job, cmd, capsys):
    """The JSON report of ``cmd`` on a golden job, without its timing
    fields, and the stored snapshot it must equal (tests/golden)."""
    assert cli.main([cmd, str(JOBS / job), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    out.pop("timestamp", None)
    out.pop("wall_time_s", None)
    stored = GOLDEN / f"{Path(job).stem}.{cmd}.json"
    return out, json.loads(stored.read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", GOLDEN_JOBS)
def test_golden_jobs_pass(job, capsys):
    out, stored = _snapshot(job, "run", capsys)
    assert out["verdict"] == "pass"
    assert out == stored


@pytest.mark.parametrize("job", GOLDEN_JOBS)
def test_golden_explain_matches_snapshot(job, capsys):
    out, stored = _snapshot(job, "explain", capsys)
    assert out == stored


def test_every_golden_job_has_snapshots():
    assert len(GOLDEN_JOBS) == 19
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{Path(job).stem}.{cmd}.json"
        for job in GOLDEN_JOBS for cmd in ("run", "explain")
    )


def test_every_acceptance_scenario_has_a_golden_file():
    names = {p.name for p in JOBS.glob("criterion*.json")}
    covered = {re.match(r"criterion(\d+)", n).group(1) for n in names}
    assert covered == {f"{i:02d}" for i in range(1, 12)}


def test_failing_expectation_exit_code(tmp_path):
    raw = dict(BASE)
    raw["expect_per_degree"] = {"0": 42}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 1


def test_enumeration_cap_fails_fast(tmp_path):
    # a job whose level bases would explode must exit infeasible quickly
    raw = {
        "schema": 1,
        "task": "homology",
        "algebra": {"name": "truncated-polynomial", "truncation": 3},
        "space": {"name": "sphere-small", "d": 2, "level": 7},
        "window": [-6, 0],
        "cap": 2000,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 3
