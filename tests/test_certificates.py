import functools
import json

import numpy as np
import pytest

import corpus
import uniqueness_reference
import calmcert.certificates as ct
from calmcert import regularizers as rz
from calmcert.certificates import (CertificateError, certify_primal_dual,
                                   certify_solution_map, prepare_multiplier,
                                   solution_resolution, solution_set_extent,
                                   strong_solution_equivalence,
                                   uniqueness_equivalence_check,
                                   uniqueness_oracle)
from calmcert.gallery import instance_for, random_group_lasso_instance
from calmcert.model import load_instance
from calmcert.solver import (kkt_bound, kkt_residual, kkt_within,
                             pair_config, solve)
from extent_reference import full_extent
from fista_reference import lasso
from k_corpus import corpus_doc


def make(doc):
    return load_instance(json.dumps(doc))


def l1_doc(phi, b, mu=1.0, k=None, n=None):
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    nx = phi.shape[1]
    ny = n or nx
    kop = k or {"kind": "identity", "dim": nx}
    return {"phi": {"kind": "dense", "rows": phi.shape[0], "cols": nx,
                    "entries": [float(v) for v in phi.ravel()]},
            "b": list(np.atleast_1d(b).astype(float)), "mu": mu,
            "k": kop,
            "reg": {"kind": "group_lasso", "dim": ny,
                    "groups": [[i] for i in range(ny)], "weight": 1.0}}


# ---------------------------------------------------------------------------
# solution-map certificates


def test_segment_not_isolated_calm_with_witness():
    inst = instance_for("lasso_segment")
    pair = solve(inst)
    report = certify_solution_map(inst, pair)
    c = report.conclusion_solution_map
    assert c.status == "not_isolated_calm"
    direction = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(abs(c.witness @ direction) - 1.0) <= 1e-8
    # witness validity: in Ker Phi and inside the tangent cone preimage
    assert np.linalg.norm(inst.phi.matrix @ c.witness) <= 1e-8


def test_zero_kernel_is_always_isolated_calm():
    inst = make(l1_doc(np.eye(2), [0.3, -0.2]))
    pair = solve(inst)
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"
    assert report.cond_suf.is_trivial and report.cond_nes.is_trivial


def test_coordinate_instance_isolated_despite_kernel():
    inst = instance_for("lasso_coordinate")
    pair = solve(inst)
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"
    assert np.allclose(report.v_bar, [1.0, 0.0], atol=1e-9)


def test_kkt_precondition_rejected():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    pair.y_bar = pair.y_bar + 0.5
    with pytest.raises(CertificateError, match="KKT"):
        certify_solution_map(inst, pair)


@pytest.mark.parametrize("entry", [0, 1])
def test_nan_multiplier_rejected(entry):
    inst = instance_for("tv_grad1d")
    pair = solve(inst)
    pair.y_bar = pair.y_bar.copy()
    pair.y_bar[entry] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(CertificateError):
        prepare_multiplier(inst, pair)


def test_nan_residual_fails_the_gate_in_either_order():
    for res in ({"stationarity": 0.1, "graph": np.nan},
                {"stationarity": np.nan, "graph": 0.1}):
        assert not kkt_within(res, 1.0)
    assert kkt_within({"stationarity": 0.1, "graph": 1.0}, 1.0)


def test_near_kkt_multiplier_is_refused():
    # a multiplier 20 kkt_bound off y_bar is refused, not repaired: every
    # pair is accepted under the solve's own bound
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    pair.y_bar = pair.y_bar + 20 * kkt_bound(inst)
    with pytest.raises(CertificateError, match="KKT"):
        certify_solution_map(inst, pair)


@pytest.mark.parametrize("outcome, qualified, status, reason", [
    ("trivial", True, "isolated_calm", "sufficient condition holds"),
    ("trivial", False, "isolated_calm", "sufficient condition holds"),
    ("nontrivial", True, "not_isolated_calm", "necessary condition fails"),
    ("nontrivial", False, "inconclusive", "sufficient condition fails"),
    ("unknown", True, "inconclusive", "cond_suf undecided"),
    ("unknown", False, "inconclusive", "cond_suf undecided"),
])
def test_solution_map_conclusion_table(outcome, qualified, status, reason):
    from calmcert.certificates import _compose_solution_conclusion
    from calmcert.cones import TrivialityVerdict
    cond_suf = {"trivial": TrivialityVerdict.trivial(),
                "nontrivial": TrivialityVerdict.nontrivial([1.0, 0.0]),
                "unknown": TrivialityVerdict.unknown("cond_suf undecided")
                }[outcome]
    cond_nes, conclusion = _compose_solution_conclusion(cond_suf, qualified)
    assert conclusion.status == status
    assert conclusion.reason.startswith(reason)
    # cond_nes is cond_suf unless a failing cond_suf meets no qualification
    assert (cond_nes is cond_suf) == (qualified or outcome == "trivial")
    assert (conclusion.witness is not None) == (status == "not_isolated_calm")


def test_qualification_collapse_agreement():
    # polyhedral faces: decisive cond_suf and cond_nes must coincide
    for seed in range(30):
        inst = random_group_lasso_instance(seed)
        pair = solve(inst)
        report = certify_solution_map(inst, pair)
        assert report.qual_polyhedral
        assert report.cond_suf.outcome == report.cond_nes.outcome


def test_implication_chain_sufficient_implies_necessary():
    for seed in range(40, 70):
        inst = random_group_lasso_instance(seed)
        pair = solve(inst)
        report = certify_solution_map(inst, pair)
        if report.cond_suf.is_trivial:
            assert report.cond_nes.is_trivial


# ---------------------------------------------------------------------------
# primal-dual certificates


def test_pd_identity_k_reduces_to_solution_map():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    report = certify_primal_dual(inst, pair)
    assert report.srcq.is_trivial
    assert report.conclusion_primal_dual.status == "isolated_calm"


def test_pd_surjective_grad_srcq_holds():
    doc = {"phi": {"kind": "identity", "dim": 2}, "b": [1.0, 0.2], "mu": 1.0,
           "k": {"kind": "grad1d", "n": 2},
           "reg": {"kind": "group_lasso", "dim": 1, "groups": [[0]],
                   "weight": 1.0}}
    inst = make(doc)
    pair = solve(inst)
    report = certify_primal_dual(inst, pair)
    assert report.srcq.is_trivial
    assert report.conclusion_primal_dual.status == "isolated_calm"


def test_pd_multiplier_segment_fails_srcq():
    inst = instance_for("pd_multiplier_segment")
    pair = solve(inst)
    report = certify_primal_dual(inst, pair)
    assert report.srcq.is_nontrivial
    w = report.srcq.witness
    # witness in Ker K^T
    assert np.linalg.norm(inst.k.matrix.T @ w) <= 1e-8
    assert report.conclusion_primal_dual.status == "not_isolated_calm"
    assert report.conclusion_solution_map.status == "isolated_calm"


@pytest.mark.parametrize("name", ["gallery/pd_multiplier_segment",
                                  "k_corpus/1", "k_corpus/2", "k_corpus/13",
                                  "k_corpus/28"])
def test_srcq_witness_moves_the_multiplier_along_a_segment(name):
    # a subset of the corpus tier's check (tests/test_corpus.py), at a
    # step ten times its own: y_bar + t eta is again a multiplier of x_bar
    docs = dict(corpus.gallery_documents()
                + corpus.corpus_documents([1, 2, 13, 28]))
    assert corpus.alternate_multipliers_verify(docs[name], 1e-3)


# ---------------------------------------------------------------------------
# strong solutions


def test_strong_solution_scalar():
    inst = instance_for("lasso_scalar")
    out = strong_solution_equivalence(inst, solve(inst))
    assert out["strong_solution"] is True


def test_strong_solution_segment_witness():
    inst = instance_for("lasso_segment")
    out = strong_solution_equivalence(inst, solve(inst))
    assert out["strong_solution"] is False
    w = np.asarray(out["witness"])
    assert abs(abs(w @ (np.array([1.0, -1.0]) / np.sqrt(2))) - 1.0) <= 1e-8


def test_strong_solution_zero_operator():
    # Phi = 0: v_bar = 0 sits in the interior of the dual ball, the face is
    # {0}, and the tangent cone is {0} despite Ker Phi being everything
    inst = make(l1_doc([[0.0]], [5.0]))
    pair = solve(inst)
    assert pair.x_bar[0] == pytest.approx(0.0, abs=1e-12)
    out = strong_solution_equivalence(inst, pair)
    assert out["strong_solution"] is True


def test_strong_solution_requires_identity_k():
    inst = instance_for("tv_grad1d")
    with pytest.raises(ValueError, match="identity"):
        strong_solution_equivalence(inst, solve(inst))


# ---------------------------------------------------------------------------
# the solution set's far end


@functools.cache
def _duplicated_group(seed):
    """(instance, pair, conclusion) of a Lasso draw with a group copied
    onto an inactive one."""
    inst = make(lasso(np.random.default_rng([seed, 60, 7]), 60, grouped=True,
                      dup=True))
    pair = solve(inst)
    return inst, pair, certify_solution_map(inst, pair).conclusion_solution_map


@pytest.mark.parametrize("seed", range(30))
def test_duplicated_group_reaches_a_same_data_end_along_its_witness(seed):
    # a group copied onto an inactive one gives a segment of solutions; the
    # extent LP's far end along the witness passes KKT at level 10 only when
    # the LP is solved tighter than HiGHS's default 1e-7 feasibility
    inst, pair, conclusion = _duplicated_group(seed)
    assert conclusion.status == "not_isolated_calm"
    end = solution_set_extent(inst, pair, conclusion.witness, 10)[0]
    assert end is not None
    assert np.linalg.norm(end - pair.x_bar) > solution_resolution(inst)


def _end_gap(inst, pair, c):
    """The reduced LP's end against the unreduced one's: 0 when neither
    finds one, their distance relative to the unreduced end when both do,
    inf otherwise."""
    end = solution_set_extent(inst, pair, c, 10)[0]
    ref = full_extent(inst, pair, c, 10)
    if end is None or ref is None:
        return 0.0 if end is ref else np.inf
    return np.linalg.norm(end - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(30))
def test_duplicated_group_end_is_the_unreduced_lp_end(seed):
    # K = I: every index of an interior group is pinned at 0 and leaves the
    # LP, which moves only the boundary groups' coordinates
    inst, pair, conclusion = _duplicated_group(seed)
    assert _end_gap(inst, pair, conclusion.witness) <= 1e-12


def test_k_corpus_refutations_reach_the_unreduced_lp_end():
    checked = 0
    for seed in range(200):
        doc = corpus_doc(seed)
        if doc["reg"]["kind"] == "nuclear":             # no solution-set LP
            continue
        inst = make(doc)
        pair = solve(inst)
        conclusion = certify_solution_map(inst, pair).conclusion_solution_map
        if conclusion.status == "not_isolated_calm":
            assert _end_gap(inst, pair, conclusion.witness) <= 1e-12, seed
            checked += 1
    assert checked >= 6                 # six draws of seeds 0-199 refute


def test_a_roundoff_only_row_pins_nothing():
    # K = [I; I] with groups {i, i + 2}: E's rows are (e_i - e_{i+2})/sqrt(2),
    # so E K holds one entry ~1e-16 a row, and a count of the nonzero entries
    # would pin both coordinates of a segment of solutions
    inst = make(corpus_doc(23))
    pair = solve(inst)
    conclusion = certify_solution_map(inst, pair).conclusion_solution_map
    assert conclusion.status == "not_isolated_calm"
    face = rz.conj_subdiff_face(inst.reg, pair.y_bar, inst.tol)
    ek = face.polyhedral_system()[2] @ inst.k.matrix
    assert (np.count_nonzero(ek, axis=1) == 1).all()
    assert np.abs(ek).max() < 1e-15
    end, _ = solution_set_extent(inst, pair, conclusion.witness, 10)
    assert end is not None
    assert _end_gap(inst, pair, conclusion.witness) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 24: the solver's "
                   "multiplier from a far start pins the K = [I; I] group")
@pytest.mark.parametrize("seed", [23, 143, 203])
def test_k_corpus_refutation_holds_from_a_seeded_start(seed):
    # the solution set is a segment, whatever the start: from x0, y0 drawn
    # at unit scale the solver lands elsewhere on it (2.77 from the default
    # x_bar on seed 23), with a multiplier 4.2e-7 off the default one, and
    # both maps read isolated_calm there
    inst = make(corpus_doc(seed))
    rng = np.random.default_rng(12345)
    x0 = rng.standard_normal(inst.dim_x)
    y0 = rng.standard_normal(inst.dim_y)
    pair = solve(inst, pair_config(inst), x0=x0, y0=y0)
    for certify in (certify_solution_map, certify_primal_dual):
        conclusion = certify(inst, pair).conclusion_solution_map
        assert conclusion.status == "not_isolated_calm"


def test_a_face_that_pins_every_coordinate_solves_no_lp(monkeypatch):
    # x_bar = 0 with y_bar inside the dual ball: both groups are interior
    inst = make(l1_doc([[1.0, 1.0]], [0.5]))
    pair = solve(inst)
    assert np.abs(pair.y_bar).max() < 1.0
    calls = []
    lp = ct.linear_program
    monkeypatch.setattr(ct, "linear_program",
                        lambda *a, **k: calls.append(1) or lp(*a, **k))
    assert solution_set_extent(inst, pair, np.array([1.0, -1.0]), 10) == (
        None, "the solution-set LP finds no step along the witness")
    assert calls == []


# ---------------------------------------------------------------------------
# uniqueness oracle


def test_oracle_segment_nonunique():
    inst = instance_for("lasso_segment")
    pair = solve(inst)
    unique, alternate, _ = uniqueness_oracle(inst, pair)
    assert not unique
    assert alternate is not None
    # the alternate point really is optimal for the same data
    from calmcert.solver import kkt_residual
    res = kkt_residual(inst, np.asarray(alternate), pair.y_bar)
    assert max(res.values()) <= 1e-7


def test_oracle_identity_unique():
    inst = make(l1_doc(np.eye(2), [0.5, 2.0]))
    pair = solve(inst)
    unique, _, _ = uniqueness_oracle(inst, pair)
    assert unique


def test_a_nine_variable_document_gets_an_answer_that_agrees():
    # the oracle solves two solution-set LPs, not 2^n subsets, so dim X
    # has no budget
    rng = np.random.default_rng(0)
    doc = l1_doc(rng.standard_normal((2, 9)), rng.standard_normal(2))
    inst = make(doc)
    pair = solve(inst)
    assert uniqueness_equivalence_check(inst, pair)["agrees"] is True


def _three_variable_instances():
    """100 seeded three-variable, two-group Lasso instances, K = I."""
    rng_master = np.random.default_rng(2024)
    for _ in range(100):
        rng = np.random.default_rng(rng_master.integers(2**32))
        phi = rng.standard_normal((int(rng.integers(1, 4)), 3))
        b = 2.0 * rng.standard_normal(phi.shape[0])
        groups = [[0, 1], [2]] if rng.random() < 0.5 else [[0], [1, 2]]
        doc = {"phi": {"kind": "dense", "rows": phi.shape[0], "cols": 3,
                       "entries": [float(v) for v in phi.ravel()]},
               "b": [float(v) for v in b], "mu": float(rng.uniform(0.5, 2.0)),
               "k": {"kind": "identity", "dim": 3},
               "reg": {"kind": "group_lasso", "dim": 3, "groups": groups,
                       "weight": 1.0}}
        yield make(doc)


def test_three_variable_two_group_agreement_100_seeds():
    for trial, inst in enumerate(_three_variable_instances()):
        pair = solve(inst)
        out = uniqueness_equivalence_check(inst, pair)
        assert out["agrees"] is not False, f"trial {trial}: {out}"


def _analysis_k_instances():
    return [random_group_lasso_instance(seed, k_kinds=("dense",))
            for seed in range(30)]


def test_analysis_k_agreement():
    # general K exercises the analysis route of both oracle and certificate
    mismatches = []
    for seed, inst in enumerate(_analysis_k_instances()):
        pair = solve(inst)
        out = uniqueness_equivalence_check(inst, pair)
        if out["agrees"] is False:
            mismatches.append(seed)
    assert not mismatches


def test_oracle_matches_the_subset_enumeration():
    # the gate's 200 draws, the 30 dense-K draws and the 100 three-variable
    # trials: the same answer as the enumeration, and every alternate is a
    # solution of the same data (KKT at level 1e3) beyond the resolution
    gate = [random_group_lasso_instance(seed) for seed in range(200)]
    counts = {True: 0, False: 0}
    for i, inst in enumerate(gate + _analysis_k_instances()
                             + list(_three_variable_instances())):
        pair = solve(inst)
        want, _, want_detail = uniqueness_reference.uniqueness_oracle(inst, pair)
        unique, alternate, detail = uniqueness_oracle(inst, pair)
        assert unique == want, i
        assert detail["movement_dim"] == want_detail["movement_dim"], i
        counts[unique] += 1
        if alternate is not None:
            assert kkt_within(kkt_residual(inst, alternate, pair.y_bar),
                              kkt_bound(inst, 1e3)), i
            assert np.linalg.norm(alternate - pair.x_bar) \
                > solution_resolution(inst), i
    assert counts[True] >= 100 and counts[False] >= 40


def test_oracle_vertex_pattern_branch():
    # solution set is the segment from (0,-1) to (1,0); at the vertex (1,0)
    # the second coordinate is tight and movement needs a strictly negative
    # margin pattern
    from calmcert.model import ProblemInstance, LinearOp, l1 as make_l1
    from calmcert.model import SolutionPair
    inst = make(l1_doc([[1.0, -1.0]], [2.0]))
    x = np.array([1.0, 0.0])
    y = np.array([1.0, -1.0])
    pair = SolutionPair(x_bar=x, y_bar=y, v_bar=inst.v_of(x),
                        residuals={"stationarity": 0.0, "graph": 0.0})
    from calmcert.solver import kkt_residual
    assert max(kkt_residual(inst, x, y).values()) <= 1e-12
    unique, alternate, detail = uniqueness_oracle(inst, pair)
    assert not unique
    assert detail["tight_groups"] == [1]
    res = kkt_residual(inst, np.asarray(alternate), y)
    assert max(res.values()) <= 1e-7
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "not_isolated_calm"


def test_oracle_vertex_unique_case():
    # at x = 0 with both coordinates tight on opposed rays, the kernel of
    # Phi = [1, -1] cannot enter the product of rays: unique
    from calmcert.model import SolutionPair
    from calmcert.solver import kkt_residual
    inst = make(l1_doc([[1.0, -1.0]], [1.0]))
    x = np.zeros(2)
    y = np.array([1.0, -1.0])
    pair = SolutionPair(x_bar=x, y_bar=y, v_bar=inst.v_of(x),
                        residuals={"stationarity": 0.0, "graph": 0.0})
    assert max(kkt_residual(inst, x, y).values()) <= 1e-12
    unique, _, detail = uniqueness_oracle(inst, pair)
    assert unique
    assert detail["movement_dim"] == 1 and detail["tight_groups"] == [0, 1]
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"


def test_tv_2d_integration():
    # grad2d is not surjective: the solution map is calm here but the
    # primal-dual map is not (multipliers on the dead gradient coordinates
    # move freely)
    from calmcert.gallery import tv_groups
    doc = {"phi": {"kind": "identity", "dim": 4},
           "b": [1.0, 0.3, -0.5, 0.8], "mu": 1.0,
           "k": {"kind": "grad2d", "n1": 2, "n2": 2},
           "reg": {"kind": "group_lasso", "dim": 8, "groups": tv_groups(2, 2),
                   "weight": 0.4}}
    inst = make(doc)
    pair = solve(inst)
    report = certify_primal_dual(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"
    assert report.srcq.is_nontrivial
    assert report.conclusion_primal_dual.status == "not_isolated_calm"
    w = report.srcq.witness
    assert np.linalg.norm(inst.k.matrix.T @ w) <= 1e-7
    assert report.cond_suf.outcome == report.cond_nes.outcome


def _tv_doc(scale, n=4):
    """TV denoising of a noisy three-level n x n image, (b, weight) * scale."""
    from calmcert.gallery import tv_groups
    rng = np.random.default_rng([0, 5])
    img = np.zeros((n, n))
    ci, cj = int(rng.integers(1, n)), int(rng.integers(1, n))
    levels = rng.uniform(-1.0, 1.0, size=3)
    img[:ci, :] = levels[0]
    img[ci:, :cj] = levels[1]
    img[ci:, cj:] = levels[2]
    b = img.ravel() + 0.05 * rng.standard_normal(n * n)
    return {"phi": {"kind": "identity", "dim": n * n},
            "b": [float(v) for v in scale * b], "mu": 1.0,
            "k": {"kind": "grad2d", "n1": n, "n2": n},
            "reg": {"kind": "group_lasso", "dim": 2 * n * n,
                    "groups": tv_groups(n, n), "weight": 0.1 * scale}}


def test_tv_verdicts_do_not_change_with_scale():
    # group activity is judged relative to ||K x_bar||: at 1e5 an absolute
    # threshold rejected the solver's own multiplier
    for scale in (1e-3, 1.0, 1e3, 1e5):
        inst = make(_tv_doc(scale))
        report = certify_primal_dual(inst, solve(inst))
        assert report.conclusion_solution_map.status == "isolated_calm", scale
        assert report.conclusion_primal_dual.status == "not_isolated_calm", scale


def test_polyhedral_with_dense_k_pipeline():
    doc = {"phi": {"kind": "dense", "rows": 1, "cols": 2,
                   "entries": [1.0, 0.3]},
           "b": [2.0], "mu": 1.0,
           "k": {"kind": "dense", "rows": 2, "cols": 2,
                 "entries": [1.0, 0.1, -0.2, 1.0]},
           "reg": {"kind": "polyhedral_indicator",
                   "A": {"kind": "dense", "rows": 4, "cols": 2,
                         "entries": [1.0, 0.0, -1.0, 0.0,
                                     0.0, 1.0, 0.0, -1.0]},
                   "c": [1.0, 1.0, 1.0, 1.0]}}
    inst = make(doc)
    pair = solve(inst)
    report = certify_primal_dual(inst, pair)
    assert report.conclusion_solution_map.status in ("isolated_calm",
                                                     "not_isolated_calm")
    assert report.cond_suf.outcome == report.cond_nes.outcome


def test_not_isolated_calm_witnesses_are_valid_everywhere():
    # witness validity across whatever random instances come out negative
    from calmcert.cones import preimage
    from calmcert import regularizers as rz
    found = 0
    for seed in range(60):
        inst = random_group_lasso_instance(seed)
        pair = solve(inst)
        report = certify_solution_map(inst, pair)
        c = report.conclusion_solution_map
        if c.status != "not_isolated_calm":
            continue
        found += 1
        w = c.witness
        assert np.linalg.norm(inst.phi.matrix @ w) <= 10 * inst.tol.member
        cone = rz.tangent_conj_subdiff(inst.reg, report.y_used,
                                       inst.k.apply(pair.x_bar), inst.tol)
        assert preimage(inst.k, cone, inst.tol).member(w, 10 * inst.tol.member)
    assert found >= 5          # the generator produces plenty of negatives


def _rotated_nuclear_instance(tail, seed=3):
    """2x2 nuclear instance in a random basis with Ker Phi = span of the
    rotated off-diagonal direction; tail < 1 is the nondegenerate branch."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    x_mat = q1 @ np.diag([1.3, 0.0]) @ q2.T
    y_mat = q1 @ np.diag([1.0, tail]) @ q2.T
    u0 = (q1 @ np.array([[0.0, 1.0], [0.0, 0.0]]) @ q2.T).ravel()
    basis = np.linalg.svd(np.eye(4) - np.outer(u0, u0))[0][:, :3].T
    phi = basis                                   # rows span u0-perp
    b = phi @ (x_mat.ravel() + y_mat.ravel())
    doc = {"phi": {"kind": "dense", "rows": 3, "cols": 4,
                   "entries": [float(v) for v in phi.ravel()]},
           "b": [float(v) for v in b], "mu": 1.0,
           "k": {"kind": "identity", "dim": 4},
           "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 1.0}}
    return make(doc), x_mat, y_mat


def test_rotated_nuclear_nondegenerate_pipeline():
    inst, x_mat, y_mat = _rotated_nuclear_instance(tail=0.5)
    pair = solve(inst)
    assert np.allclose(pair.x_bar, x_mat.ravel(), atol=1e-7)
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"
    assert not report.has_unknown


def test_rotated_nuclear_degenerate_pipeline():
    inst, x_mat, _ = _rotated_nuclear_instance(tail=1.0)
    pair = solve(inst)
    assert np.allclose(pair.x_bar, x_mat.ravel(), atol=1e-7)
    report = certify_solution_map(inst, pair)
    assert report.cond_suf.is_unknown
    assert report.conclusion_solution_map.status == "inconclusive"


def test_srcq_consistent_with_bounded_sweeps_on_curated_suite():
    # wherever sweeps show no instability on a decisive instance, the
    # adjoint-kernel condition must not produce a witness
    from calmcert.empirics import perturbation_sweep
    for name in ("lasso_scalar", "lasso_coordinate", "tv_grad1d"):
        inst = instance_for(name)
        pair = solve(inst)
        report = certify_primal_dual(inst, pair)
        est = perturbation_sweep(inst, pair, [1e-2, 1e-3], n_per_radius=8,
                                 seed=0)
        if not est.blowup_flag and report.conclusion_primal_dual.is_decisive:
            assert not report.srcq.is_nontrivial or \
                report.conclusion_primal_dual.status == "not_isolated_calm"
        if name in ("lasso_scalar", "lasso_coordinate", "tv_grad1d"):
            assert not report.srcq.is_nontrivial


def _lasso_doc(rng, n, size):
    """K = I Lasso with groups of the given size, m = n / 2."""
    m, groups = n // 2, [list(range(g, g + size)) for g in range(0, n, size)]
    phi = rng.standard_normal((m, n)) / np.sqrt(m)
    x0 = np.zeros(n)
    for g in rng.choice(len(groups), size=max(2, len(groups) // 15), replace=False):
        x0[groups[g]] = rng.choice([-1.0, 1.0], size=size)
    b = phi @ x0 + 0.01 * rng.standard_normal(m)
    doc = l1_doc(phi, b)
    doc["reg"]["groups"] = groups
    doc["reg"]["weight"] = 0.1 * float(np.max(np.abs(phi.T @ b)))
    return doc


FACTORIZATIONS = ("svd", "qr", "eigh", "eig", "cholesky", "lstsq", "pinv")


def test_identity_k_certificate_stays_at_subspace_size(monkeypatch):
    # K = I: Phi is decided on T = span(B) through Phi B (m x dim T), and
    # K^T = I needs no work, so no SVD has n columns (neither Ker Phi nor
    # the 2n x n projector stack) and nothing of size n x n is factored
    # (K itself, an n x n basis or a complement of T)
    cases = [(200, 1, 4), (400, 4, 1)]           # (n, group size, seed)
    insts = [(n, make(_lasso_doc(np.random.default_rng(seed), n, size)))
             for n, size, seed in cases]
    pairs = [solve(inst) for _, inst in insts]   # the solver caches ||Phi||
    shapes = {name: [] for name in FACTORIZATIONS}
    for name in shapes:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            shapes[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    for (n, inst), pair in zip(insts, pairs):
        for calls in shapes.values():
            calls.clear()
        report = certify_primal_dual(inst, pair)
        assert report.conclusion_primal_dual.status in ("isolated_calm",
                                                        "not_isolated_calm")
        assert shapes["svd"], "Phi B is decided by an SVD"
        assert all(cols < n for _, cols in shapes["svd"])
        assert all((n, n) not in calls for calls in shapes.values())


def test_identity_phi_is_decided_without_factoring_phi(monkeypatch):
    # TV denoising: Phi is the identity, Ker Phi = {0} is read from the
    # operator, and neither certificate condition factors Phi
    inst = instance_for("tv_grad1d")
    pair = solve(inst)
    phi = inst.phi.matrix
    seen = []
    for name in FACTORIZATIONS:
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            seen.append(np.shape(a) == phi.shape and np.array_equal(a, phi))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    report = certify_primal_dual(inst, pair)
    assert report.cond_suf.is_trivial and report.cond_nes.is_trivial
    assert not any(seen)


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_primal_dual_builds_its_geometry_once(monkeypatch):
    # K = I: one conjugate face and one tangent cone serve both certificates,
    # the necessary condition is the sufficient one, and the one cone
    # decision is Ker Phi vs T.  Ker K* = Ker I = {0} decides srcq with no
    # tangent to dg and no certificate.
    import calmcert.certificates as ct
    from calmcert import regularizers as rz
    inst = instance_for("lasso_segment")
    pair = solve(inst)
    counts = {}
    _count_calls(monkeypatch, rz, "conj_subdiff_face", counts)
    _count_calls(monkeypatch, rz.GroupLassoFace, "tangent_at", counts)
    _count_calls(monkeypatch, rz, "tangent_subdiff", counts)
    _count_calls(monkeypatch, ct, "trivial_intersection", counts)
    report = certify_primal_dual(inst, pair)
    assert report.conclusion_primal_dual.status == "not_isolated_calm"
    assert report.cond_nes is report.cond_suf
    assert report.srcq.is_trivial and report.srcq.certificate is None
    assert counts == {"conj_subdiff_face": 1, "tangent_at": 1,
                      "trivial_intersection": 1}


def test_identity_k_builds_no_tangent_to_the_subdifferential(monkeypatch):
    # Ker K* = Ker I = {0} meets every cone trivially, also where the tangent
    # to dg has no exact description: the multiplier at x_bar = 0 has two
    # unit singular values, where srcq used to read unknown
    from calmcert import regularizers as rz
    inst = make({"phi": {"kind": "identity", "dim": 4},
                 "b": [1.0, 0.0, 0.0, 1.0], "mu": 1.0,
                 "k": {"kind": "identity", "dim": 4},
                 "reg": {"kind": "nuclear", "m": 2, "n": 2, "weight": 1.0}})
    pair = solve(inst)
    assert rz.tangent_subdiff(inst.reg, pair.x_bar, pair.y_bar, inst.tol) is None

    def no_tangent(*args, **kwargs):
        raise AssertionError("tangent to dg built for K = I")
    monkeypatch.setattr(rz, "tangent_subdiff", no_tangent)
    report = certify_primal_dual(inst, pair)
    assert report.srcq.is_trivial and report.srcq.certificate is None
    assert report.conclusion_primal_dual.status == "isolated_calm"


def _svds_of(monkeypatch, matrix):
    """A list that grows by one for each np.linalg.svd call on matrix."""
    seen = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.shape(a) == matrix.shape and np.array_equal(a, matrix):
            seen.append(1)
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return seen


def test_polyhedral_faces_never_factor_the_range_of_k(monkeypatch):
    import calmcert.certificates as ct
    # TV denoising (Phi = I, K = grad2d): Ker Phi = {0} settles both
    # kernel conditions, and a polyhedral face needs no ri test of Im K
    inst = make(_tv_doc(1.0))
    pair = solve(inst)
    svds = _svds_of(monkeypatch, inst.k.matrix)
    report = certify_primal_dual(inst, pair)
    assert report.cond_suf.is_trivial and report.cond_nes.is_trivial
    assert report.qual_ri is None and not report.has_unknown
    assert len(svds) == 0
    # Phi != I: the kernel decision needs no factorization of K either
    inst = make(l1_doc(np.diag([1.0, 2.0, 1.0]), [1.0, 2.0, 3.0],
                       k={"kind": "grad1d", "n": 3}, n=2))
    pair = solve(inst)
    svds = _svds_of(monkeypatch, inst.k.matrix)
    report = certify_primal_dual(inst, pair)
    assert report.qual_ri is None and not report.cond_nes.is_unknown
    assert len(svds) == 0


def test_one_nuclear_face_per_certificate_and_lab_check(monkeypatch):
    # a nuclear draw of the K corpus (K != I): the certificate, its tangent
    # to dg and the zero-product check's two cones share one face of y_used
    from calmcert import empirics as em
    from calmcert import regularizers as rz
    from k_corpus import corpus_doc
    inst = make(corpus_doc(10))
    assert inst.reg.kind == "nuclear" and not inst.k.is_identity
    pair = solve(inst)
    counts = {}
    _count_calls(monkeypatch, rz.NuclearFace, "__init__", counts)
    report = certify_primal_dual(inst, pair)
    assert report.srcq.is_trivial and counts == {"__init__": 1}
    lab = make(corpus_doc(10))          # a regularizer that holds no face
    _, y, _ = prepare_multiplier(lab, pair)
    counts.clear()
    em.zero_product_check(lab.reg, lab.k.apply(pair.x_bar), y, n_samples=20,
                          tol=lab.tol)
    assert counts == {"__init__": 1}


@pytest.mark.parametrize("build", [lambda: instance_for("lasso_segment"),
                                   lambda: make(_tv_doc(1.0))],
                         ids=["lasso_segment", "tv"])
def test_group_certificates_build_no_face_system(monkeypatch, build):
    # whether a face is polyhedral is its kind's attribute: neither
    # certificate builds the dense group-face system to find out
    from calmcert import regularizers as rz
    inst = build()
    pair = solve(inst)

    def no_system(self):
        raise AssertionError("group-face system built")
    monkeypatch.setattr(rz.GroupLassoFace, "polyhedral_system", no_system)
    report = certify_solution_map(inst, pair)
    assert report.qual_polyhedral and report.qual_ri is None
    assert certify_primal_dual(inst, pair).conclusion_primal_dual.is_decisive


def test_adjoint_norm_is_read_off_k(monkeypatch):
    # K^T is an operator tied to K: once ||K|| is cached (the solver reads
    # it), the primal-dual certificate computes no spectral norm
    from calmcert import linalg
    inst = make(_tv_doc(1.0, n=8))
    pair = solve(inst)
    calls = []
    original = linalg.spectral_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(linalg, "spectral_norm", counted)       # LinearOp's
    report = certify_primal_dual(inst, pair)
    assert report.srcq.is_nontrivial
    assert calls == []
    assert inst.k.adjoint.op_norm() == inst.k.op_norm()
