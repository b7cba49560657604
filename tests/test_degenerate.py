"""Small hand-built degenerate documents through every CLI verb.

Each document sits at an edge of the instance format: a zero Phi, a zero
b, no unknowns, a 1 x 1 nuclear norm, the shortest grad1d, polyhedra with
no rows, with equality rows only and reduced to one point, a huge mu, a
tiny b with a tiny weight, an analysis operator K with no nonzero
entry (a zero matrix, and grad2d of a 1 x 1 image, which is a 2 x 1 zero
matrix), a grad2d image with no rows and a zero membership tolerance.
Every verb must end with a verdict (exit 0 or 2) or with an error that
names the field at fault (exit 1), never with an exception.
"""

import csv
import json
import re

import pytest

from calmcert.cli import run

from k_corpus import corpus_doc


def _dense(rows, cols, entries):
    return {"kind": "dense", "rows": rows, "cols": cols,
            "entries": [float(v) for v in entries]}


def _l1(dim, weight=1.0):
    return {"kind": "group_lasso", "dim": dim,
            "groups": [[i] for i in range(dim)], "weight": weight}


def _polyhedron(rows, a, c):
    return {"kind": "polyhedral_indicator", "A": _dense(rows, 2, a), "c": c}


I2 = {"kind": "identity", "dim": 2}
I1 = {"kind": "identity", "dim": 1}
PHI = _dense(2, 2, [1, 2, 3, 4])

DOCS = {
    "phi_zero": {"phi": _dense(2, 2, [0] * 4), "b": [1.0, 1.0], "mu": 1.0,
                 "k": I2, "reg": _l1(2)},
    "b_zero": {"phi": PHI, "b": [0.0, 0.0], "mu": 1.0, "k": I2,
               "reg": _l1(2)},
    "dim_x_zero": {"phi": _dense(2, 0, []), "b": [1.0, 1.0], "mu": 1.0,
                   "k": {"kind": "identity", "dim": 0},
                   "reg": {"kind": "group_lasso", "dim": 0, "groups": [],
                           "weight": 1.0}},
    "nuclear_1x1": {"phi": I1, "b": [2.0], "mu": 1.0, "k": I1,
                    "reg": {"kind": "nuclear", "m": 1, "n": 1, "weight": 1.0}},
    "grad1d_n2": {"phi": I2, "b": [1.0, 0.0], "mu": 1.0,
                  "k": {"kind": "grad1d", "n": 2}, "reg": _l1(1, 0.2)},
    "polyhedron_no_rows": {"phi": PHI, "b": [1.0, 1.0], "mu": 1.0, "k": I2,
                           "reg": _polyhedron(0, [], [])},
    "polyhedron_equality": {"phi": I2, "b": [0.0, 0.0], "mu": 1.0, "k": I2,
                            "reg": _polyhedron(2, [1, 1, -1, -1], [1.0, -1.0])},
    "polyhedron_point": {"phi": I2, "b": [0.0, 0.0], "mu": 1.0, "k": I2,
                         "reg": _polyhedron(4, [1, 0, -1, 0, 0, 1, 0, -1],
                                            [1.0, -1.0, 1.0, -1.0])},
    "mu_1e12": {"phi": PHI, "b": [1.0, 1.0], "mu": 1e12, "k": I2,
                "reg": _l1(2)},
    "b_and_weight_1e-12": {"phi": PHI, "b": [1e-12, 1e-12], "mu": 1.0,
                           "k": I2, "reg": _l1(2, 1e-12)},
    "k_zero": {"phi": I2, "b": [1.0, 1.0], "mu": 1.0,
               "k": _dense(2, 2, [0] * 4), "reg": _l1(2)},
    "grad2d_1x1": {"phi": I1, "b": [1.0], "mu": 1.0,
                   "k": {"kind": "grad2d", "n1": 1, "n2": 1},
                   "reg": {"kind": "group_lasso", "dim": 2,
                           "groups": [[0, 1]], "weight": 1.0}},
    "grad2d_0x1": {"phi": I1, "b": [1.0], "mu": 1.0,
                   "k": {"kind": "grad2d", "n1": 0, "n2": 1}, "reg": _l1(2)},
    "tol_member_0": {"phi": PHI, "b": [1.0, 1.0], "mu": 1.0, "k": I2,
                     "reg": _l1(2), "tol": {"member": 0}},
}

VERBS = (["solve"], ["certify"], ["certify-pd"], ["probe"],
         ["sweep", "--radii", "1e-2", "--samples", "2"],
         ["lab", "--samples", "10"])
FIELDS = ("phi", "b", "mu", "k", "reg", "tol", "y_override")
# an error line that starts with a field's path: the field, then a
# sub-field, a colon or an index
NAMES_A_FIELD = re.compile(rf"^error: ({'|'.join(FIELDS)})[.:\[]", re.M)


def _path(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DOCS[name]))
    return path


@pytest.mark.parametrize("name", sorted(DOCS))
def test_every_verb_ends_with_a_verdict_or_names_the_field(name, tmp_path,
                                                           capsys):
    path, out = _path(tmp_path, name), tmp_path / "out.json"
    for verb in VERBS:
        out.unlink(missing_ok=True)
        code = run([verb[0], str(path), "--out", str(out)] + verb[1:])
        err = capsys.readouterr().err
        assert "Traceback" not in err, (name, verb)
        if code == 1:
            assert NAMES_A_FIELD.search(err), (name, verb, err)
            continue
        assert code in (0, 2), (name, verb)
        payload = json.loads(out.read_text())["payload"]
        if verb[0] in ("certify", "certify-pd"):
            assert payload["conclusion_solution_map"]["status"] in (
                "isolated_calm", "not_isolated_calm", "inconclusive")


@pytest.mark.parametrize("name", ["k_zero", "grad2d_1x1"])
def test_zero_analysis_operator_keeps_its_verdicts(name, tmp_path):
    # K = 0 regularizes nothing in the Newton system: once a division by
    # eps = tol.rank ||K||^2 = 0 raised out of every verb
    path, out = _path(tmp_path, name), tmp_path / "out.json"
    assert run(["solve", str(path), "--out", str(out)]) == 0
    assert run(["certify", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["conclusion_solution_map"]["status"] == "isolated_calm"
    assert run(["certify-pd", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    # Ker K* is all of Y, so it meets the tangent cone to dg(K x_bar)
    assert payload["conclusion_primal_dual"]["status"] == "not_isolated_calm"


@pytest.mark.parametrize("verb", ["solve", "certify", "probe", "lab"])
def test_key_value_csv_reads_back_two_fields_a_row(verb, tmp_path):
    # v_bar = [-0.0, -0.0] holds commas: unquoted, csv.reader split it
    path, out = _path(tmp_path, "k_zero"), tmp_path / "out.csv"
    assert run([verb, str(path), "--format", "csv", "--out", str(out)]) in (0, 2)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows and all(len(row) == 2 for row in rows), rows


# ROADMAP item 5: exact rescalings that the tolerances do not follow.  The
# marks are strict, so the change that mends a case must drop its mark.
SCALE = pytest.mark.xfail(strict=True, reason="the KKT bound accepts a "
                          "multiplier that the certificates refuse")
SCALED = {"b_1e12": {"phi": PHI, "b": [1e12, 1e12], "mu": 1.0, "k": I2,
                     "reg": _l1(2)},
          "weight_1e-12": {"phi": PHI, "b": [1.0, 1.0], "mu": 1.0, "k": I2,
                           "reg": _l1(2, 1e-12)}}


@pytest.mark.parametrize("verb", ["solve", pytest.param("certify", marks=SCALE),
                                  pytest.param("certify-pd", marks=SCALE)])
@pytest.mark.parametrize("name", sorted(SCALED))
def test_a_scaled_pair_that_solve_accepts_gets_a_verdict(name, verb, tmp_path):
    # certify and certify-pd exit 1: "||y_J|| exceeds the dual bound by
    # 0.00366" (b) and 0.00453 (weight)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SCALED[name]))
    assert run([verb, str(path), "--out", str(tmp_path / "out.json")]) in (0, 2)


@pytest.mark.xfail(strict=True, reason="the scaled x_bar, 1e6 times the "
                   "unscaled roundoff, moves the primal-dual verdict")
def test_k_corpus_60_keeps_its_primal_dual_verdict_when_b_and_weight_scale(
        tmp_path):
    # unscaled, certify-pd reads not_isolated_calm, and rightly: the srcq
    # witness eta has ||K^T eta|| = 7e-16, and y_bar + t eta passes KKT
    doc = corpus_doc(60)
    doc["b"] = [1e6 * v for v in doc["b"]]
    doc["reg"]["weight"] *= 1e6
    path, out = tmp_path / "scaled.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert run(["certify-pd", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["conclusion_primal_dual"]["status"] == "not_isolated_calm"
