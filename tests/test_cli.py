import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calmcert import cones, empirics
from calmcert.cli import run
from calmcert.gallery import curated_cases
from calmcert.solver import kkt_residual

from box_instances import box_document
from corpus import bench_ops
from planted_nuclear import planted_nuclear
from splitting_reference import SLOW_TV, tv_image
from test_degenerate import DOCS
from test_one_decision import WINDOW


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    # the gallery, benchmark certify documents, a TV 8x8, the window, K = 0
    root = tmp_path_factory.mktemp("instances")
    docs = {op["name"]: op["doc"] for op in bench_ops("certify", 0)}
    docs.update((case["name"], case["instance"]) for case in curated_cases())
    n, noise, weight, image = next(s for s in SLOW_TV if s[0] == 8)
    docs.update(tv8=tv_image(np.random.default_rng([image, 11]), n, n,
                             noise=noise, weight=weight),
                window=WINDOW, k_zero=DOCS["k_zero"])
    paths = {}
    for name, doc in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


SOLUTIONS = {"lasso_scalar": ([2.0], [1.0]),
             "k_zero": ([1.0, 1.0], [0.0, 0.0]),
             "window": ([2.5e-7, 2.5e-7], [1.0, 1.0, 0.0])}


@pytest.mark.parametrize("name", SOLUTIONS)
def test_solve_writes_solution(instances, tmp_path, name):
    # the two residuals its pair was accepted on, within tol_kkt (1 + ||b||)
    x_bar, y_bar = SOLUTIONS[name]
    out = tmp_path / "sol.json"
    code = run(["solve", str(instances[name]), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "solution"
    assert doc["payload"]["x_bar"] == pytest.approx(x_bar, abs=1e-8)
    assert doc["payload"]["y_bar"] == pytest.approx(y_bar, abs=1e-8)
    residuals = doc["payload"]["residuals"]
    assert set(residuals) == {"stationarity", "graph"}
    b = json.loads(instances[name].read_text())["b"]
    bound = doc["provenance"]["tolerances"]["kkt"] * (1 + np.linalg.norm(b))
    assert all(v <= bound for v in residuals.values())
    assert "instance_hash" in doc["provenance"]
    assert doc["provenance"]["seed"] == 0


def test_certify_exit_codes(instances, tmp_path):
    out = tmp_path / "r.json"
    assert run(["certify", str(instances["lasso_segment"]),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    payload = doc["payload"]
    assert payload["conclusion_solution_map"]["status"] == "not_isolated_calm"
    assert len(payload["conclusion_solution_map"]["witness"]) == 2
    assert payload["cond_suf"]["outcome"] == "fails"
    assert run(["certify", str(instances["nuclear_degenerate"]),
                "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["payload"]["cond_suf"]["outcome"] == "unknown"


def test_certify_pd_populates_fields(instances, tmp_path):
    out = tmp_path / "pd.json"
    assert run(["certify-pd", str(instances["pd_multiplier_segment"]),
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["srcq"]["outcome"] == "fails"
    assert payload["conclusion_primal_dual"]["status"] == "not_isolated_calm"
    # the primal-dual report adds srcq and its conclusion, nothing else
    assert "pd_conditions" not in payload
    assert payload["qual_ri"] == "not evaluated"


def test_error_exit_code_and_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"phi": {"kind": "dense", "rows": 1, "cols": 1,
                                       "entries": [1.0]},
                               "b": [1.0], "mu": -1.0,
                               "k": {"kind": "identity", "dim": 1},
                               "reg": {"kind": "group_lasso", "dim": 1,
                                       "groups": [[0]], "weight": 1.0}}))
    assert run(["certify", str(bad)]) == 1
    assert "mu must be positive" in capsys.readouterr().err
    assert run(["certify", str(tmp_path / "missing.json")]) == 1


def _one_by_one(**fields):
    """A 1 x 1 Lasso document with the given fields replaced, each given as
    a dotted path (phi.rows) mapped to its new value."""
    doc = {"phi": {"kind": "dense", "rows": 1, "cols": 1, "entries": [1.0]},
           "b": [1.0], "mu": 1.0, "k": {"kind": "identity", "dim": 1},
           "reg": {"kind": "group_lasso", "dim": 1, "groups": [[0]],
                   "weight": 1.0}}
    for path, value in fields.items():
        head, key = path.split(".")
        doc[head][key] = value
    return doc


NUCLEAR = {"kind": "nuclear", "m": 1, "n": 1, "weight": 1.0}


@pytest.mark.parametrize("field, value, doc, message", [
    ("phi.rows", None, {}, "expected a non-negative integer, got null"),
    ("phi.rows", True, {}, "expected a non-negative integer, got a boolean"),
    ("phi.cols", "1", {}, "expected a non-negative integer, got a string"),
    ("k.dim", [2], {}, "expected a non-negative integer, got an array"),
    ("k.dim", {"n": 1}, {}, "expected a non-negative integer, got an object"),
    ("phi.rows", 1.5, {}, "expected an integer, got 1.5"),
    ("phi.cols", -1, {}, "must be non-negative"),
    ("reg.dim", 2 ** 64, {}, "exceeds the largest array size"),
    ("reg.dim", 2 ** 63, {}, "exceeds the largest array size"),
    ("reg.dim", 1e300, {}, "exceeds the largest array size"),
    ("k.n", 2.5, {"k": {"kind": "grad1d", "n": 2}}, "expected an integer"),
    ("k.n1", None, {"k": {"kind": "grad2d", "n1": 1, "n2": 1}}, "got null"),
    ("k.n2", -3, {"k": {"kind": "grad2d", "n1": 1, "n2": 1}}, "non-negative"),
    ("reg.m", [1], {"reg": dict(NUCLEAR)}, "got an array"),
    ("reg.n", 0.5, {"reg": dict(NUCLEAR)}, "expected an integer, got 0.5"),
])
def test_size_fields_are_checked_integers(tmp_path, capsys, field, value, doc,
                                          message):
    # each of these used to escape as TypeError or OverflowError, or (1.5)
    # to be truncated and accepted
    base = _one_by_one()
    base.update(doc)
    head, key = field.split(".")
    base[head][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base))
    assert run(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and message in err


@pytest.mark.parametrize("groups, field, message", [
    (None, "reg.groups", "expected an array of index arrays, got null"),
    ({"0": [0]}, "reg.groups", "got an object"),
    ([5], "reg.groups[0]", "expected an array of indices, got a number"),
    ([None], "reg.groups[0]", "got null"),
    ([[None]], "reg.groups[0][0]", "expected a non-negative integer, got null"),
    ([[True]], "reg.groups[0][0]", "got a boolean"),
    ([["0"]], "reg.groups[0][0]", "got a string"),
    ([[0.7]], "reg.groups[0][0]", "expected an integer, got 0.7"),
    ([[-1]], "reg.groups[0][0]", "must be non-negative"),
    ([[0, 1]], "reg.groups[0][1]", "index 1 is out of range for dim 1"),
    ([[0], [2 ** 64]], "reg.groups[1][0]", "exceeds the largest array size"),
    ([[0], [0]], "reg.groups", "group_lasso groups must partition 0..dim-1"),
])
def test_group_indices_are_checked(tmp_path, capsys, groups, field, message):
    # null, [[null]] and [5] used to escape as TypeError, and [[0.7]] to be
    # truncated to [[0]] and accepted
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_one_by_one(**{"reg.groups": groups})))
    assert run(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and message in err


def test_nuclear_with_more_rows_than_columns_is_rejected(tmp_path, capsys):
    doc = _one_by_one(**{"phi.cols": 2, "phi.entries": [1.0, 1.0]})
    doc["k"] = {"kind": "identity", "dim": 2}
    doc["reg"] = {"kind": "nuclear", "m": 2, "n": 1, "weight": 1.0}
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(doc))
    assert run(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: reg.m: nuclear requires m <= n")


@pytest.mark.parametrize("reg, kind", [
    ({"kind": "group_lasso", "dim": 1, "groups": [[0]]}, "group_lasso"),
    (NUCLEAR, "nuclear"),
])
@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_a_weight_that_is_not_positive_is_rejected(tmp_path, capsys, reg, kind,
                                                    weight):
    doc = _one_by_one()
    doc["reg"] = dict(reg, weight=weight)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: reg.weight: {kind} weight must be positive")


# g = 0 as the indicator of a polyhedron with no rows: (Phi, K), K None for
# the identity
ZERO_ROWS = {"line": ([[1.0, 1.0]], None),
             "point": ([[1.0, 1.0], [0.0, 1.0]], None),
             "k_dense": ([[1.0, 1.0], [0.0, 1.0]],
                         [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])}


def _dense(matrix):
    m = np.asarray(matrix, dtype=float)
    return {"kind": "dense", "rows": m.shape[0], "cols": m.shape[1],
            "entries": m.ravel().tolist()}


def _zero_rows_path(tmp_path, case):
    phi, k = ZERO_ROWS[case]
    dim = len(phi[0]) if k is None else len(k)
    doc = {"phi": _dense(phi), "b": [1.0] * len(phi), "mu": 1.0,
           "k": {"kind": "identity", "dim": dim} if k is None else _dense(k),
           "reg": {"kind": "polyhedral_indicator",
                   "A": _dense(np.zeros((0, dim))), "c": []}}
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("verb", ["solve", "certify", "certify-pd", "sweep",
                                  "probe", "lab"])
@pytest.mark.parametrize("case", sorted(ZERO_ROWS))
def test_zero_row_polyhedron_runs_every_verb(tmp_path, case, verb):
    # A read as a tuple of rows lost its column count, and a zero-row
    # polyhedron failed to load
    path = _zero_rows_path(tmp_path, case)
    assert run([verb, str(path), "--out", str(tmp_path / "out.json")]) == 0


@pytest.mark.parametrize("verb", ["certify", "certify-pd"])
def test_zero_row_polyhedron_verdicts(tmp_path, verb):
    # with g = 0 the solutions are x_bar + Ker Phi: the line x_1 + x_2 = const
    # for Phi = [1 1], the one point for an invertible Phi
    out = tmp_path / "r.json"
    assert run([verb, str(_zero_rows_path(tmp_path, "line")),
                "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["payload"]["conclusion_solution_map"]
    assert verdict["status"] == "not_isolated_calm"
    w = np.asarray(verdict["witness"])
    assert np.allclose(np.abs(w), np.sqrt(0.5)) and abs(w.sum()) <= 1e-12
    assert run([verb, str(_zero_rows_path(tmp_path, "point")),
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["conclusion_solution_map"]["status"] == "isolated_calm"
    if verb == "certify-pd":
        assert payload["conclusion_primal_dual"]["status"] == "isolated_calm"


@pytest.mark.parametrize("verb", ["solve", "certify", "certify-pd", "sweep",
                                  "probe", "lab"])
@pytest.mark.parametrize("c", [[1.0, -1.0], [1.0, 1.0]])
def test_zero_column_polyhedron_is_rejected(tmp_path, capsys, c, verb):
    # an A with rows but no column: an empty set (c = (1, -1)) and all of
    # R^0 (c = (1, 1)) alike are refused by the loader, naming reg.A
    doc = {"phi": _dense(np.zeros((1, 0))), "b": [1.0], "mu": 1.0,
           "k": {"kind": "identity", "dim": 0},
           "reg": {"kind": "polyhedral_indicator",
                   "A": _dense(np.zeros((2, 0))), "c": c}}
    path = tmp_path / "zero_cols.json"
    path.write_text(json.dumps(doc))
    assert run([verb, str(path), "--out", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == "error: reg.A: A has rows but no column\n"


def _seed7_nuclear(tmp_path):
    """(path, d): the planted nuclear document of seed 7 (refuting, K = I,
    tests/planted_nuclear.py) and the unit direction of its segment of
    solutions."""
    doc, _, d = planted_nuclear(7)
    path = tmp_path / "seed7.json"
    path.write_text(json.dumps(doc))
    return path, d / np.linalg.norm(d)


def test_seed7_nuclear_segment_is_refuted_at_default_tolerances(tmp_path):
    path, _ = _seed7_nuclear(tmp_path)
    out = tmp_path / "r.json"
    assert run(["certify", str(path), "--out", str(out)]) == 0
    verdict = json.loads(out.read_text())["payload"]["conclusion_solution_map"]
    assert verdict["status"] == "not_isolated_calm"


@pytest.mark.parametrize("verb", ["certify", "certify-pd"])
def test_seed7_nuclear_segment_is_refuted_at_twice_the_rank_cut(tmp_path,
                                                                verb):
    path, d = _seed7_nuclear(tmp_path)
    out = tmp_path / "r.json"
    assert run([verb, str(path), "--tol-rank", "2e-9", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    keys = ["conclusion_solution_map"] + (["conclusion_primal_dual"]
                                          if verb == "certify-pd" else [])
    for key in keys:
        assert payload[key]["status"] == "not_isolated_calm"
    witness = np.asarray(payload["conclusion_solution_map"]["witness"])
    assert abs(witness @ d) == pytest.approx(1.0, abs=1e-5)


def test_seed7_nuclear_segment_probe_refutes_at_twice_the_rank_cut(tmp_path):
    path, _ = _seed7_nuclear(tmp_path)
    out = tmp_path / "p.json"
    assert run(["probe", str(path), "--tol-rank", "2e-9",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["refuted"] is True


def test_seed7_nuclear_probe_is_byte_identical_across_runs(tmp_path):
    path, _ = _seed7_nuclear(tmp_path)
    reports = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        assert run(["probe", str(path), "--tol-rank", "2e-9",
                    "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["payload"]["refuted"] is True


def test_integral_group_indices_load(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_one_by_one(**{"reg.groups": [[0.0]]})))
    assert run(["solve", str(path), "--out", str(tmp_path / "s.json")]) == 0


def test_integral_size_fields_load(tmp_path):
    # a size written as 1.0 is the integer 1
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_one_by_one(**{"phi.rows": 1.0, "k.dim": 1.0})))
    assert run(["solve", str(path), "--out", str(tmp_path / "s.json")]) == 0


def test_sweep_writes_json_and_csv(instances, tmp_path):
    out = tmp_path / "sweep.json"
    code = run(["sweep", str(instances["lasso_scalar"]), "--out", str(out),
                "--radii", "1e-2,1e-3", "--samples", "6", "--seed", "1"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["payload"]["kappa_hat_per_radius"]) == 2
    csv_text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_text[0] == "radius,db_norm,dmu,x_dist,ratio,solver_iters,flag"
    assert len(csv_text) == 13


def test_sweep_base_pair_meets_the_sweep_tolerance(tmp_path, monkeypatch):
    # every sweep ratio is a distance from x_bar, so x_bar is solved to the
    # KKT target of the perturbed solves, min(1e-12, tol.kkt)
    n, noise, weight, image = SLOW_TV[1]
    path = tmp_path / "tv.json"
    path.write_text(json.dumps(tv_image(np.random.default_rng([image, 11]),
                                        n, n, noise=noise, weight=weight)))
    seen = []
    sweep = empirics.perturbation_sweep

    def recorded(instance, pair, *args, **kwargs):
        seen.append((instance, pair))
        return sweep(instance, pair, *args, **kwargs)

    monkeypatch.setattr(empirics, "perturbation_sweep", recorded)
    assert run(["sweep", str(path), "--radii", "1e-3", "--samples", "1",
                "--out", str(tmp_path / "s.json")]) == 0
    (instance, pair), = seen
    target = min(1e-12, instance.tol.kkt) * (1.0 + np.linalg.norm(instance.b))
    assert max(kkt_residual(instance, pair.x_bar, pair.y_bar).values()) <= target


@pytest.mark.parametrize("verb, flag, spec, entry", [
    ("sweep", "--radii", "1e-2,nan", "nan"), ("sweep", "--radii", "nan", "nan"),
    ("sweep", "--radii", "inf", "inf"),
    ("sweep", "--radii", "1e-2, abc", "abc"),
    ("probe", "--t-grid", "nan,1e-2", "nan")])
def test_non_finite_step_entries_are_rejected(instances, tmp_path, capsys,
                                              verb, flag, spec, entry):
    # the entry is named with its flag, before it reaches a perturbation
    out = tmp_path / "r.json"
    assert run([verb, str(instances["lasso_segment"]), flag, spec,
                "--out", str(out)]) == 1
    assert f"error: {flag}: entry '{entry}' is not a finite number" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["sweep", "--samples", "-3"], "--samples: -3 is below 1"),
    (["sweep", "--samples", "0"], "--samples: 0 is below 1"),
    (["lab", "--samples", "-1"], "--samples: -1 is below 0"),
    (["sweep", "--radii", ","], "--radii: no entry"),
    (["sweep", "--radii", ""], "--radii: no entry"),
    (["probe", "--t-grid", ","], "--t-grid: no entry"),
    (["probe", "--t-grid", "0"], "--t-grid: step 0.0 is not positive"),
    (["probe", "--t-grid", "1e-2,-0.5"], "--t-grid: step -0.5 is not positive"),
    (["certify", "--tol-rank", "2"], "--tol-rank: must be < 1"),
    (["certify", "--tol-kkt", "0"], "--tol-kkt: must be strictly positive"),
    (["certify", "--tol-member", "nan"],
     "--tol-member: must be strictly positive")])
def test_inputs_that_make_no_measurement_are_rejected(instances, tmp_path,
                                                      capsys, args, message):
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run([args[0], str(instances["lasso_segment"]), *args[1:],
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["solve", "certify", "certify-pd", "sweep",
                                  "probe", "lab"])
@pytest.mark.parametrize("name", ["lasso_segment", "nuclear_degenerate"])
def test_a_negative_seed_is_rejected_on_every_verb(instances, tmp_path, capsys,
                                                   verb, name):
    # numpy's generators refuse it with an error that names no flag, and
    # where none is drawn it would be written into the provenance
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run([verb, str(instances[name]), "--seed=-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: --seed: -1 is below 0" in err and "Traceback" not in err
    assert not out.exists()


def test_a_negative_seed_is_rejected_by_demo(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert run(["demo", "--seed=-1", "--out", str(out)]) == 1
    assert "error: --seed: -1 is below 0" in capsys.readouterr().err
    assert not out.exists()


def test_probe_refutes_segment(instances, tmp_path):
    out = tmp_path / "probe.json"
    assert run(["probe", str(instances["lasso_segment"]), "--out", str(out),
                "--t-grid", "1e-1,1e-2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["refuted"] is True


def test_probe_without_witness(instances, tmp_path):
    out = tmp_path / "probe.json"
    assert run(["probe", str(instances["lasso_scalar"]), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["available"] is False


def test_lab_reports(instances, tmp_path):
    out = tmp_path / "lab.json"
    assert run(["lab", str(instances["lasso_scalar"]), "--out", str(out),
                "--samples", "60"]) == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["kernel_formula"]["disagreements"] == 0
    assert doc["payload"]["zero_product"]["positivity_violations"] == 0


@pytest.mark.parametrize("verb, kind, key", [
    ("solve", "solution", "x_bar"),
    ("probe", "instability_probe", "certificate.status"),
    ("lab", "lab", "zero_product.available")])
def test_format_csv_reaches_every_report(instances, tmp_path, verb, kind, key):
    # --format csv flattens the payload to key,value rows; JSON keeps the kind
    segment = str(instances["lasso_segment"])
    out = tmp_path / "r.csv"
    assert run([verb, segment, "--format", "csv", "--out", str(out)]) == 0
    rows = dict(line.split(",", 1) for line in out.read_text().splitlines())
    assert key in rows
    assert run([verb, segment, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == kind


def test_solve_and_sweep_leave_scipy_unimported(tmp_path):
    # scipy is the bulk of the import time, and neither verb needs it
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((40, 60))
    lasso = {"phi": {"kind": "dense", "rows": 40, "cols": 60,
                     "entries": phi.ravel().tolist()},
             "b": (phi[:, :5] @ rng.standard_normal(5)).tolist(), "mu": 1.0,
             "k": {"kind": "identity", "dim": 60},
             "reg": {"kind": "group_lasso", "dim": 60,
                     "groups": [[i] for i in range(60)], "weight": 0.5}}
    argv = []
    for name, doc in (("tv", tv_image(np.random.default_rng(1), 6, 6)),
                      ("l1", lasso)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [["solve", str(path), "--out", str(tmp_path / f"{name}.sol")],
                 ["sweep", str(path), "--radii", "1e-2", "--samples", "2",
                  "--out", str(tmp_path / f"{name}.sweep.json")]]
    src = str(Path(empirics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import json, sys; from calmcert.cli import run; "
             "codes = [run(a) for a in json.loads(sys.argv[1])]; "
             "print(json.dumps([codes, 'scipy' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                         capture_output=True, text=True, check=True,
                         timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert json.loads(out.stdout) == [[0, 0, 0, 0], False]


def test_y_override(instances, tmp_path):
    from calmcert.gallery import instance_for
    y = tmp_path / "y.json"
    y.write_text(json.dumps([0.5, 0.5]))
    out = tmp_path / "r.json"
    assert run(["certify-pd", str(instances["pd_multiplier_segment"]),
                "--y-override", str(y), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["y_used"] == [0.5, 0.5]
    assert run(["solve", str(instances["pd_multiplier_segment"]),
                "--y-override", str(y), "--out", str(out)]) == 0
    pair = json.loads(out.read_text())["payload"]
    assert pair["residuals"] == kkt_residual(
        instance_for("pd_multiplier_segment"), np.array(pair["x_bar"]),
        np.array(pair["y_bar"]))
    bad = tmp_path / "ybad.json"
    bad.write_text(json.dumps([5.0, -4.0]))
    assert run(["certify-pd", str(instances["pd_multiplier_segment"]),
                "--y-override", str(bad)]) == 1


@pytest.mark.parametrize("name", ["nuclear_nondegenerate", "polyhedral_box"])
def test_y_override_is_used_as_given_or_refused(instances, tmp_path, capsys,
                                                name):
    # y_bar + eps delta: at eps = 10 kkt_bound the pair misses the solve's
    # own bound and certify-pd refuses it, naming y_override; at
    # eps = kkt_bound / 10 it is used as given, and issues the verdicts of
    # the run without it
    from calmcert.gallery import instance_for
    from calmcert.solver import kkt_bound, kkt_within, solve
    inst = instance_for(name)
    pair = solve(inst)
    delta = np.ones(pair.y_bar.size) / np.sqrt(pair.y_bar.size)
    far = pair.y_bar + 10 * kkt_bound(inst) * delta
    near = pair.y_bar + 0.1 * kkt_bound(inst) * delta
    assert not kkt_within(kkt_residual(inst, pair.x_bar, far), kkt_bound(inst))
    override = tmp_path / "far.json"
    override.write_text(json.dumps(far.tolist()))
    capsys.readouterr()
    assert run(["certify-pd", str(instances[name]),
                "--y-override", str(override)]) == 1
    assert capsys.readouterr().err.startswith(
        "certificate error: y_override: pair is not a KKT point: ")
    override = tmp_path / "near.json"
    override.write_text(json.dumps(near.tolist()))
    payloads = []
    for extra in ([], ["--y-override", str(override)]):
        out = tmp_path / f"r{len(payloads)}.json"
        code = run(["certify-pd", str(instances[name]), "--out", str(out)]
                   + extra)
        payload = json.loads(out.read_text())["payload"]
        payloads.append((code, [payload[c]["status"] for c in (
            "conclusion_solution_map", "conclusion_primal_dual")],
            [payload[v]["outcome"] for v in ("cond_suf", "cond_nes", "srcq")],
            payload["y_used"]))
    assert payloads[1][:3] == payloads[0][:3]
    assert payloads[1][3] == near.tolist()


def test_box_override_is_one_multiplier_for_every_verb(instances, tmp_path,
                                                       capsys):
    # the gallery box's y_bar = (1, 0) tilted by 3e-9, ten times its KKT
    # bound, is refused by every verb, naming y_override; tilted by 1.5e-11
    # it is used as given: certify reports it as y_used, and probe reads
    # the same multiplier and refutes the verdict
    box = str(instances["polyhedral_box"])
    far, near = tmp_path / "far.json", tmp_path / "near.json"
    far.write_text("[1.0, 3e-09]")
    near.write_text("[1.0, 1.5e-11]")
    capsys.readouterr()
    for verb in ("solve", "certify", "certify-pd", "probe", "sweep", "lab"):
        assert run([verb, box, "--y-override", str(far)]) == 1, verb
        err = capsys.readouterr().err
        assert "y_override" in err and "Traceback" not in err, verb
    out = tmp_path / "certify.json"
    assert run(["certify", box, "--y-override", str(near),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["y_used"] == [1.0, 1.5e-11]
    out = tmp_path / "probe.json"
    assert run(["probe", box, "--y-override", str(near),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["refuted"] is True


def test_solve_override_reports_its_own_residuals(instances, tmp_path):
    from calmcert.gallery import instance_for
    y = tmp_path / "y.json"
    y.write_text("[0.3, 0.7000000001]")
    out = tmp_path / "solve.json"
    assert run(["solve", str(instances["pd_multiplier_segment"]),
                "--y-override", str(y), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["y_bar"] == [0.3, 0.7000000001]
    assert payload["residuals"] == kkt_residual(
        instance_for("pd_multiplier_segment"), np.array(payload["x_bar"]),
        np.array(payload["y_bar"]))
    assert payload["residuals"]["stationarity"] > 0.0


def test_a_solve_that_stops_at_its_cap_is_a_solver_error(tmp_path, capsys,
                                                         monkeypatch):
    # the benchmark's 6 x 8 nuclear document needs more than 25 iterations
    from calmcert import solver
    from corpus import ROOT
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.instances import nuclear
    path = tmp_path / "nuclear.json"
    path.write_text(json.dumps(nuclear(np.random.default_rng(0), 6, 8)))
    monkeypatch.setattr(solver, "MAX_ITER", 25)
    assert run(["certify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "solver error: no convergence after 25 iterations ")


def test_a_y_override_of_the_wrong_dimension_is_an_error(instances, tmp_path,
                                                         capsys):
    y = tmp_path / "y.json"
    y.write_text("[1.0]")
    assert run(["certify", str(instances["lasso_segment"]),
                "--y-override", str(y)]) == 1
    assert capsys.readouterr().err == \
        "error: y_override: multiplier has the wrong dimension\n"


def test_a_report_that_cannot_be_written_is_an_error_without_a_note(
        instances, tmp_path, capsys):
    # the conclusion is printed only once its report is written
    out = tmp_path / "missing" / "r.json"
    assert run(["certify", str(instances["lasso_segment"]),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno 2] No such file or directory: '{out}'\n"


# a step of the cone decision that fails: (gallery case, what is replaced,
# the replacement, the reason cond_suf gives)
FAILED_STEPS = {
    "lp": ("polyhedral_box", (cones, "linear_program"),
           lambda *args, **kwargs: cones.LinearProgram(4, "Numerical trouble."),
           "cone LP failed: Numerical trouble."),
    "witness": ("lasso_segment", (cones, "_verify_witness"),
                lambda *args: None, "cone witness failed verification"),
    "certificate": ("lasso_coordinate", (cones.DualCertificate, "verify"),
                    lambda self, tol: False,
                    "dual certificate failed verification"),
}


@pytest.mark.parametrize("step", sorted(FAILED_STEPS))
def test_a_failed_decision_step_is_unknown(instances, tmp_path, capsys,
                                           monkeypatch, step):
    # a decision that cannot be backed is unknown, never a decisive verdict
    name, (owner, attr), replacement, reason = FAILED_STEPS[step]
    monkeypatch.setattr(owner, attr, replacement)
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run(["certify", str(instances[name]), "--out", str(out)]) == 2
    payload = json.loads(out.read_text())["payload"]
    assert payload["cond_suf"] == {"outcome": "unknown", "reason": reason,
                                   "witness": None}
    assert payload["conclusion_solution_map"]["status"] == "inconclusive"
    assert capsys.readouterr().err == "conclusion: inconclusive\n"


def test_srcq_without_a_tangent_cone_is_unknown(tmp_path, capsys):
    # K = 2 I, nuclear 2 x 2: the solution map is decided, srcq is not
    doc = {"phi": {"kind": "identity", "dim": 4}, "b": [1.0, 0.0, 0.0, 1.0],
           "mu": 1.0, "k": _dense(2 * np.eye(4)),
           "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 0.5}}
    path, out = tmp_path / "pd.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert run(["certify-pd", str(path), "--out", str(out)]) == 2
    payload = json.loads(out.read_text())["payload"]
    assert payload["srcq"] == {
        "outcome": "unknown", "witness": None, "reason": "tangent cone to "
        "dg(K x_bar) not representable for this multiplier"}
    assert payload["conclusion_solution_map"]["status"] == "isolated_calm"
    assert payload["conclusion_primal_dual"]["status"] == "inconclusive"
    assert capsys.readouterr().err == \
        "conclusion: isolated_calm\nprimal-dual: inconclusive\n"


@pytest.mark.parametrize("radius", ["-1e-2", "0", "1e300"])
def test_sweep_radius_without_a_perturbation_is_an_error(instances, capsys,
                                                         radius):
    capsys.readouterr()
    assert run(["sweep", str(instances["lasso_scalar"]), f"--radii={radius}",
                "--samples", "2"]) == 1
    err = capsys.readouterr().err
    assert repr(float(radius)) in err and "Traceback" not in err


@pytest.mark.parametrize("override", ["[NaN, NaN]", "[Infinity, Infinity]"])
def test_non_finite_y_override_is_an_error(instances, tmp_path, capsys, override):
    y = tmp_path / "y.json"
    y.write_text(override)
    out = tmp_path / "r.json"
    assert run(["certify-pd", str(instances["tv_grad1d"]),
                "--y-override", str(y), "--out", str(out)]) == 1
    assert "y_override[0]: value must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_byte_identical_reports(instances, tmp_path):
    # every verb, with the sweep's CSV side file and CSV reports
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    segment, scalar = str(instances["lasso_segment"]), str(instances["lasso_scalar"])
    doc = {name: str(path) for name, path in instances.items()}
    for argv in (["solve", segment], ["certify", segment],
                 ["certify-pd", str(instances["nuclear_degenerate"])],
                 ["probe", segment], ["lab", str(instances["nuclear_degenerate"])],
                 ["sweep", scalar, "--radii", "1e-2", "--samples", "5"],
                 ["sweep", doc["tv8"], "--radii", "1e-2,1e-3", "--samples", "2"],
                 *(["solve", doc[n]] for n in ("nuclear6x8", "box8", "group400_0")),
                 *(["lab", doc[n]] for n in ("lab_l1_40_0", "lab_nuclear6x8",
                                             "polyhedral_box")),
                 ["certify-pd", doc["window"]], ["probe", doc["window"]],
                 ["certify-pd", doc["window"], "--format", "csv"],
                 ["certify", segment, "--format", "csv"], ["demo"]):
        codes = [run(argv + ["--seed", "7", "--out", str(path)])
                 for path in (a, b)]
        assert codes[0] == codes[1] and codes[0] in (0, 2), argv
        assert a.read_bytes() == b.read_bytes(), argv
        if argv[0] == "sweep":
            assert a.with_suffix(".csv").read_bytes() == \
                b.with_suffix(".csv").read_bytes()


def test_tolerance_overrides_recorded(instances, tmp_path):
    out = tmp_path / "r.json"
    assert run(["certify", str(instances["lasso_scalar"]), "--out", str(out),
                "--tol-member", "1e-6", "--tol-kkt", "1e-9"]) == 0
    prov = json.loads(out.read_text())["provenance"]
    assert set(prov["tolerances"]) == {"rank", "member", "kkt"}
    assert prov["tolerances"]["member"] == 1e-6
    assert prov["tolerances"]["kkt"] == 1e-9


def test_demo_passes(capsys):
    assert run(["demo"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_demo_format_csv_writes_the_table(tmp_path):
    out = tmp_path / "demo.csv"
    assert run(["demo", "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["case", "expected", "obtained", "pass"]
    assert len(rows) == 1 + len(curated_cases())
    assert all(row[1] == row[2] and row[3] == "True" for row in rows[1:])


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_report_is_valid_json(instances, tmp_path):
    # a lab quotient off the domain of g and the min_inner of no samples are
    # written null, never Infinity
    rng = np.random.default_rng(4)
    paths = {case["name"]: instances[case["name"]] for case in curated_cases()}
    for name, args in (("box8", (4, True, 1)), ("box12", (6, False, 2))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(box_document(rng, *args)))
    verbs = (["solve"], ["certify"], ["certify-pd"], ["probe"],
             ["sweep", "--radii", "1e-2", "--samples", "2"],
             ["lab", "--samples", "20"], ["lab", "--samples", "0"])
    out = tmp_path / "out.json"
    for name, path in paths.items():
        for verb in verbs:
            out.unlink(missing_ok=True)
            code = run([verb[0], str(path), "--out", str(out)] + verb[1:])
            assert code in (0, 2), (name, verb)
            doc = _strict_json(out.read_text())
            if verb == ["lab", "--samples", "0"]:
                assert doc["payload"]["zero_product"].get("min_inner", None) is None
    assert run(["demo", "--out", str(out)]) == 0
    _strict_json(out.read_text())
