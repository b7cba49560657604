"""One Ker Phi decision per K != I solution-map certificate.

With K != I and Phi != I the certificate decides Ker Phi against the
preimage of the face's own rows (the face tangent for a curved face), and
the necessary condition is that same verdict under the qualification.  The
two hand-made instances below are the ones on which the sufficient and the
necessary condition, decided apart on two descriptions of that cone,
disagreed: "stacked" by a null space read at a relative rank threshold,
"window" by the two activity slacks (tol.member for the tangent, and
10 tol.member for the face rows) around (K x_bar)_J.
"""

import json

import numpy as np
import pytest

import calmcert.certificates as ct
from calmcert import cones
from calmcert import regularizers as rz
from calmcert.cli import run
from calmcert.cones import PolyhedralCone, SubspacePlusRays, preimage
from calmcert.linalg import Subspace
from calmcert.model import load_instance, materialize
from calmcert.solver import solve

from k_corpus import corpus_doc, dense_doc


# Phi = [1 1], K = [I; I]: g(K x) = sqrt(2) ||x||_1, and the solution set is
# the segment x_1 + x_2 = 3 - sqrt(2) of the positive quadrant
STACKED = {"phi": dense_doc([[1.0, 1.0]]), "b": [3.0], "mu": 1.0,
           "k": dense_doc(np.vstack([np.eye(2), np.eye(2)])),
           "reg": {"kind": "group_lasso", "dim": 4, "groups": [[0, 2], [1, 3]],
                   "weight": 1.0}}

# the solver's x_bar is (2.5e-7, 2.5e-7), so each (K x_bar)_J = 5e-7 lies
# between the two activity slacks
WINDOW = {"phi": dense_doc([[1.0, 1.0]]), "b": [2.0 + 5e-7], "mu": 1.0,
          "k": dense_doc([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]]),
          "reg": {"kind": "group_lasso", "dim": 3, "groups": [[0], [1], [2]],
                  "weight": 1.0}}

VERBS = ("certify", "certify-pd", "probe")


def _run(tmp_path, doc, verb):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{verb}.json"
    code = run([verb, str(path), "--out", str(out)])
    payload = json.loads(out.read_text())["payload"]
    status = (payload["certificate"] if verb == "probe"
              else payload["conclusion_solution_map"])["status"]
    return code, status, payload


@pytest.mark.parametrize("verb", VERBS)
def test_stacked_copies_are_not_isolated_calm(tmp_path, verb):
    code, status, payload = _run(tmp_path, STACKED, verb)
    assert code == 0
    assert status == "not_isolated_calm"
    if verb == "probe":
        assert payload["refuted"] is True


@pytest.mark.parametrize("verb", VERBS)
def test_window_between_the_activity_slacks_gets_a_verdict(tmp_path, verb):
    code, status, _ = _run(tmp_path, WINDOW, verb)
    assert code == 0
    assert status in ("isolated_calm", "not_isolated_calm")


CORPUS = range(150)


def test_k_corpus_certifies_without_raising():
    # every draw gets a primal-dual report; every witness is in Ker Phi and
    # maps into the face tangent; the necessary condition is the sufficient
    # one whenever the qualification holds
    statuses, families = set(), set()
    for seed in CORPUS:
        doc = corpus_doc(seed)
        inst = load_instance(json.dumps(doc))
        pair = solve(inst)
        report = ct.certify_primal_dual(inst, pair, seed=seed)
        conc = report.conclusion_solution_map
        statuses.add(conc.status)
        families.add(doc["reg"]["kind"])
        if report.qual_polyhedral or report.qual_ri == "yes":
            assert report.cond_nes is report.cond_suf, seed
        if conc.witness is None:
            continue
        tol = inst.tol
        w = conc.witness
        assert np.linalg.norm(materialize(inst.phi) @ w) <= 10 * tol.member, seed
        tangent = rz.tangent_conj_subdiff(inst.reg, report.y_used,
                                          inst.k.apply(pair.x_bar), tol)
        assert preimage(inst.k, tangent, tol).member(w, 10 * tol.member), seed
    assert {"isolated_calm", "not_isolated_calm"} <= statuses
    assert families == {"group_lasso", "nuclear"}


def test_one_kernel_decision_per_certificate(monkeypatch):
    calls = []
    original = ct.trivial_intersection

    def counted(m, cone, *args, **kwargs):
        calls.append(m)
        return original(m, cone, *args, **kwargs)
    monkeypatch.setattr(ct, "trivial_intersection", counted)
    for doc in [STACKED, WINDOW] + [corpus_doc(seed) for seed in range(0, 30, 7)]:
        inst = load_instance(json.dumps(doc))
        pair = solve(inst)
        for certify in (ct.certify_solution_map, ct.certify_primal_dual):
            calls.clear()
            certify(inst, pair)
            assert sum(m is inst.phi for m in calls) == 1


def test_preimage_of_a_subspace_forms_no_null_space(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("null_space called")
    monkeypatch.setattr(cones, "null_space", forbidden)
    k = np.vstack([np.eye(2), np.eye(2)])
    span = Subspace(4, np.array([[1.0, 0.0, 1.0, 0.0]]).T)
    cone = preimage(k, SubspacePlusRays(span, []))
    assert isinstance(cone, PolyhedralCone)
    assert cone.member(np.array([1.0, 0.0]), 1e-9)
    assert not cone.member(np.array([0.0, 1.0]), 1e-7)
