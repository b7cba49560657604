import json

import numpy as np
import pytest

from calmcert.certificates import (CertificateError, certify_primal_dual,
                                   certify_solution_map,
                                   strong_solution_equivalence,
                                   uniqueness_equivalence_check,
                                   uniqueness_oracle)
from calmcert.gallery import instance_for, random_group_lasso_instance
from calmcert.model import load_instance, materialize
from calmcert.solver import solve


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
    assert np.linalg.norm(materialize(inst.phi) @ c.witness) <= 1e-8


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


def test_near_kkt_multiplier_is_refined():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    scale = 1.0 + np.linalg.norm(inst.b)
    pair.y_bar = pair.y_bar + 20 * inst.tol.kkt * scale
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"
    assert abs(report.y_used[0] - 1.0) <= 100 * inst.tol.kkt * scale


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
    assert np.linalg.norm(materialize(inst.k).T @ w) <= 1e-8
    assert report.conclusion_primal_dual.status == "not_isolated_calm"
    assert report.conclusion_solution_map.status == "isolated_calm"


def test_pd_condition_ordering_iii_implies_ii():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    report = certify_primal_dual(inst, pair)
    if report.pd_conditions["iii"] == "yes":
        assert report.pd_conditions["ii"] in ("yes",)


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


def test_oracle_budget_enforced():
    rng = np.random.default_rng(0)
    doc = l1_doc(rng.standard_normal((2, 9)), rng.standard_normal(2))
    inst = make(doc)
    pair = solve(inst)
    with pytest.raises(ValueError, match="budget"):
        uniqueness_equivalence_check(inst, pair)


def test_three_variable_two_group_agreement_100_seeds():
    rng_master = np.random.default_rng(2024)
    for trial in range(100):
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
        inst = make(doc)
        pair = solve(inst)
        out = uniqueness_equivalence_check(inst, pair)
        assert out["agrees"] is not False, f"trial {trial}: {out}"


def test_analysis_k_agreement():
    # general K exercises the analysis route of both oracle and certificate
    mismatches = []
    for seed in range(30):
        inst = random_group_lasso_instance(seed, k_kinds=("dense",))
        pair = solve(inst)
        out = uniqueness_equivalence_check(inst, pair)
        if out["agrees"] is False:
            mismatches.append(seed)
    assert not mismatches


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
                        residuals={"stationarity": 0.0, "dual_feas": 0.0,
                                   "gap_proxy": 0.0})
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
                        residuals={"stationarity": 0.0, "dual_feas": 0.0,
                                   "gap_proxy": 0.0})
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
    assert np.linalg.norm(materialize(inst.k).T @ w) <= 1e-7
    assert report.cond_suf.outcome == report.cond_nes.outcome


def _tv4_doc(scale):
    """TV denoising of a noisy three-level 4x4 image, (b, weight) * scale."""
    from calmcert.gallery import tv_groups
    rng = np.random.default_rng([0, 5])
    img = np.zeros((4, 4))
    ci, cj = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    levels = rng.uniform(-1.0, 1.0, size=3)
    img[:ci, :] = levels[0]
    img[ci:, :cj] = levels[1]
    img[ci:, cj:] = levels[2]
    b = img.ravel() + 0.05 * rng.standard_normal(16)
    return {"phi": {"kind": "identity", "dim": 16},
            "b": [float(v) for v in scale * b], "mu": 1.0,
            "k": {"kind": "grad2d", "n1": 4, "n2": 4},
            "reg": {"kind": "group_lasso", "dim": 32, "groups": tv_groups(4, 4),
                    "weight": 0.1 * scale}}


def test_tv_verdicts_do_not_change_with_scale():
    # group activity is judged relative to ||K x_bar||: at 1e5 an absolute
    # threshold rejected the solver's own multiplier
    for scale in (1e-3, 1.0, 1e3, 1e5):
        inst = make(_tv4_doc(scale))
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


def test_recover_multiplier_from_primal_only():
    from calmcert.certificates import recover_multiplier
    inst = instance_for("pd_multiplier_segment")
    pair = solve(inst)
    y = recover_multiplier(inst, pair.x_bar)
    from calmcert.solver import kkt_residual
    res = kkt_residual(inst, pair.x_bar, y)
    scale = 1.0 + np.linalg.norm(inst.b)
    assert max(res.values()) <= 100 * inst.tol.kkt * scale
    # and a failure is reported, not guessed: impossible stationarity target
    from calmcert.certificates import CertificateError
    bad = instance_for("lasso_scalar")
    with pytest.raises(CertificateError, match="multiplier"):
        recover_multiplier(bad, np.array([5.0]))


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
        assert np.linalg.norm(materialize(inst.phi) @ w) <= 10 * inst.tol.member
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
