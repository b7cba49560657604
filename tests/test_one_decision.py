"""One Ker Phi decision per solution-map certificate, for every K.

The certificate decides Ker Phi against the preimage under K of the face's
own tangent cone.  Since K^-1 (C cap Im K) = K^-1 C, that is also the
preimage of the range-restricted tangent of a polyhedral face, so the one
verdict is the necessary condition too; for a curved face it is when the
qualification holds or the verdict is trivial.  The two hand-made instances
below are the ones on which the sufficient and the necessary condition,
once decided apart on two descriptions of that cone, disagreed: "stacked"
by a null space read at a relative rank threshold, "window" by the two
activity slacks (tol.member for the tangent, and 10 tol.member for the face
rows) around (K x_bar)_J.
"""

import json

import numpy as np
import pytest

import calmcert.certificates as ct
from calmcert import cones
from calmcert import regularizers as rz
from calmcert.cli import run
from calmcert.cones import SubspacePlusRays, preimage
from calmcert.linalg import Subspace
from calmcert.model import instance_hash, load_instance
from calmcert.solver import pair_config, solve

import corpus
import make_ledger
from k_corpus import corpus_doc, dense_doc
from planted_nuclear import SEGMENT, planted_nuclear, tilted_k


# Phi = [1 1], K = [I; I]: g(K x) = sqrt(2) ||x||_1, and the solution set is
# the segment x_1 + x_2 = 3 - sqrt(2) of the positive quadrant
STACKED = {"phi": dense_doc([[1.0, 1.0]]), "b": [3.0], "mu": 1.0,
           "k": dense_doc(np.vstack([np.eye(2), np.eye(2)])),
           "reg": {"kind": "group_lasso", "dim": 4, "groups": [[0, 2], [1, 3]],
                   "weight": 1.0}}

# the solution set is the segment x_1 + x_2 = 5e-7, x >= 0; the solver's
# x_bar is (2.5e-7, 2.5e-7), so each (K x_bar)_J = 5e-7 lies between the two
# activity slacks
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


@pytest.mark.parametrize("delta", [2e-7, 3e-7, 5e-7])
@pytest.mark.parametrize("verb", ["certify", "certify-pd"])
def test_window_segments_above_the_tangent_slack_are_not_isolated_calm(
        tmp_path, verb, delta):
    # each (K x_bar)_J = delta is above the tangent's tol.member, so both
    # groups move, and Ker Phi meets K^-1 T along the segment x_1 + x_2 = delta
    code, status, payload = _run(tmp_path, {**WINDOW, "b": [2.0 + delta]}, verb)
    assert code == 0
    assert status == "not_isolated_calm"
    w = np.asarray(payload["conclusion_solution_map"]["witness"])
    assert np.allclose(np.abs(w), np.sqrt(0.5)) and abs(w.sum()) <= 1e-12


@pytest.mark.parametrize("delta", [2e-7, 5e-7, 1e-6, 1e-5])
def test_probe_refutes_window_segments_with_solution_set_ends(tmp_path, delta):
    # for K != I the probe's alternate is the far end of the solution set
    # along the witness, one of the segment's ends delta e_1 and delta e_2,
    # a solution of the same data
    doc = {**WINDOW, "b": [2.0 + delta]}
    code, status, payload = _run(tmp_path, doc, "probe")
    assert code == 0 and status == "not_isolated_calm"
    assert payload["refuted"] is True
    end = np.asarray(payload["alternate"])
    assert min(np.linalg.norm(end - delta * e) for e in np.eye(2)) \
        <= 1e-3 * delta
    r = ct.solution_resolution(load_instance(json.dumps(doc)))
    assert payload["entries"]
    for entry in payload["entries"]:
        assert entry["x_dist"] > r
        assert entry["b_dist"] == 0.0 and entry["verified"]


def test_probe_steps_toward_the_solution_set_end(tmp_path):
    # grid steps short of the end (7.07e-6 from x_bar) and beyond the
    # resolution (2.1e-9) join the end; 1e-1 and 1e-12 do not
    path = tmp_path / "window.json"
    path.write_text(json.dumps({**WINDOW, "b": [2.0 + 1e-5]}))
    out = tmp_path / "probe.json"
    assert run(["probe", str(path), "--t-grid", "1e-1,1e-6,1e-7,1e-12",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["refuted"] is True
    steps = [e["t"] for e in payload["entries"]]
    assert steps[:2] == [1e-6, 1e-7] and len(steps) == 3
    assert steps[2] == pytest.approx(np.sqrt(0.5) * 1e-5, rel=1e-3)
    for entry in payload["entries"]:
        assert entry["x_dist"] == pytest.approx(entry["t"], rel=1e-9)


def test_probe_refutes_every_polyhedral_verdict_with_a_same_data_end(tmp_path):
    # the polyhedral not_isolated_calm documents of the gallery and of one
    # benchmark certify cycle (verdicts read off the ledger), all K = I: the
    # K != I ones of the K corpus are probed by tests/test_corpus.py
    status = {r["hash"]: r["solution_map"] for r in make_ledger.load()}
    docs = [(name, doc) for name, doc in corpus.gallery_documents()
            + corpus.bench_documents([11])
            if doc["reg"]["kind"] != "nuclear" and status[instance_hash(
                load_instance(json.dumps(doc)))] == "not_isolated_calm"]
    assert len(docs) >= 10 and all(doc["k"]["kind"] == "identity"
                                   for _, doc in docs)
    failed = []
    for name, doc in docs:
        code, verdict, payload = _run(tmp_path, doc, "probe")
        if not (code == 0 and verdict == "not_isolated_calm"
                and payload["refuted"] is True and "alternate" in payload
                and all(e["b_dist"] == 0.0 for e in payload["entries"])):
            failed.append(name)
    assert failed == []


def _on_the_planted_line(payload, x0, d):
    """The alternate's t along x0 + t d, after checking that it lies within
    1e-6 ||d|| of that line."""
    w = np.asarray(payload["alternate"]) - x0
    t = float(w @ d) / float(d @ d)
    assert np.linalg.norm(w - t * d) <= 1e-6 * np.linalg.norm(d)
    return t


def _refuted_with_a_same_data_end(tmp_path, doc, x0, d):
    """The t of a refuted planted draw's end, after checking its probe."""
    code, status, payload = _run(tmp_path, doc, "probe")
    assert code == 0 and status == "not_isolated_calm"
    assert payload["refuted"] is True and payload["entries"]
    assert all(e["b_dist"] == 0.0 and e["ratio"] is None and e["verified"]
               for e in payload["entries"])
    return _on_the_planted_line(payload, x0, d)


def test_planted_nuclear_draws_get_their_verdicts_and_same_data_ends(tmp_path):
    # K = I, seeds 0-59 (tests/planted_nuclear.py): every transverse draw
    # reads isolated_calm, and every refuting one is refuted by probe with an
    # end on its planted segment, at the segment's end unless the box
    # ||x - x_bar||_inf <= max(1, ||x_bar||_inf) caps it first; x_bar, the
    # verbs' pair, is a point of the segment
    uncapped = 0
    for seed in range(60):
        doc, _, _ = planted_nuclear(seed, refute=False)
        assert _run(tmp_path, doc, "certify")[1] == "isolated_calm", seed
        doc, x0, d = planted_nuclear(seed)
        t = _refuted_with_a_same_data_end(tmp_path, doc, x0, d)
        inst = load_instance(json.dumps(doc))
        x_bar = solve(inst, pair_config(inst)).x_bar
        t_bar = float((x_bar - x0) @ d) / float(d @ d)
        planted = SEGMENT[1] if t > t_bar else SEGMENT[0]
        box = max(1.0, float(np.abs(x_bar).max()))
        reach = abs(planted - t_bar) * float(np.abs(d).max())
        if reach < box * (1 - 1e-6):
            uncapped += 1
            assert t == pytest.approx(planted, abs=1e-6), seed
        else:
            assert abs(t - t_bar) * float(np.abs(d).max()) == \
                pytest.approx(box, rel=1e-6), seed
    assert uncapped == 29


def test_probe_reads_the_nuclear_solution_set_for_a_tilted_k(tmp_path):
    # K = I + 0.3 G: the curved face's solution set is read off the pair's
    # face as for K = I, and the end is the planted one
    k = tilted_k(1)
    doc, x0, d = planted_nuclear(1, k=k)
    t = _refuted_with_a_same_data_end(tmp_path, doc, x0, d)
    assert t == pytest.approx(SEGMENT[1], abs=1e-6)


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
        assert np.linalg.norm(inst.phi.matrix @ w) <= 10 * tol.member, seed
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
    assert cone.member(np.array([1.0, 0.0]), 1e-9)
    assert not cone.member(np.array([0.0, 1.0]), 1e-7)


def test_face_tangent_and_range_restricted_tangent_decide_alike():
    # K^-1 (C cap Im K) = K^-1 C: the Ker Phi verdict on the preimage of the
    # face tangent is the one on the preimage of the range-restricted tangent
    # (the face tangent itself for a curved face)
    for seed in range(300):
        inst = load_instance(json.dumps(corpus_doc(seed)))
        pair = solve(inst)
        report = ct.certify_solution_map(inst, pair, seed=seed)
        tol = inst.tol
        kx = inst.k.apply(pair.x_bar)
        face = rz.conj_subdiff_face(inst.reg, report.y_used, tol)
        cone = cones.tangent_with_range_restriction(face, kx, inst.k, tol)
        if cone is None:                              # a curved face
            cone = face.tangent_at(kx, tol)
        reference = cones.trivial_intersection(
            inst.phi, preimage(inst.k, cone, tol), tol, seed=seed)
        assert report.cond_suf.outcome == reference.outcome, seed


def test_trivial_kernel_condition_is_necessary_without_qualification():
    # a nuclear face whose relative interior Im K is not known to meet:
    # K^-1 T_{F cap Im K} lies in K^-1 T_F, so a trivial verdict carries over
    inst = load_instance(json.dumps(corpus_doc(1272)))
    report = ct.certify_solution_map(inst, solve(inst), seed=1272)
    assert not report.qual_polyhedral and report.qual_ri != "yes"
    assert report.cond_suf.is_trivial
    assert report.cond_nes is report.cond_suf
