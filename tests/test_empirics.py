import json
import re

import numpy as np
import pytest

import lab_reference
from box_instances import box_document
from lab_reference import graph_sample
from planted_nuclear import planted_nuclear
from calmcert import empirics
from calmcert import regularizers as rz
from calmcert.empirics import (instability_probe, kernel_formula_check,
                               perturbation_sweep, zero_product_check)
from calmcert.certificates import certify_solution_map
from calmcert.gallery import instance_for
from calmcert.cones import PsdCone, SubspacePlusRays
from calmcert.linalg import Subspace, Tolerances
from calmcert.model import group_lasso, l1, load_instance, nuclear
from calmcert.solver import SolverConfig, solve

TOL = Tolerances()


# ---------------------------------------------------------------------------
# perturbation sweeps


def test_sweep_scalar_lasso_unit_modulus():
    # |x(b') - 2| = |b' - 3| near b = 3: ratios peak at 1
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    est = perturbation_sweep(inst, pair, [1e-2, 1e-3], n_per_radius=20, seed=0)
    for kappa in est.kappa_hat_per_radius:
        assert 0.9 <= kappa <= 1.1
    assert not est.blowup_flag


def test_sweep_identity_phi_bounded_ratios():
    doc = {"phi": {"kind": "identity", "dim": 2}, "b": [0.4, -1.5], "mu": 1.0,
           "k": {"kind": "identity", "dim": 2},
           "reg": {"kind": "group_lasso", "dim": 2, "groups": [[0], [1]],
                   "weight": 1.0}}
    inst = load_instance(json.dumps(doc))
    pair = solve(inst)
    est = perturbation_sweep(inst, pair, [1e-2, 1e-4], n_per_radius=12, seed=1)
    assert all(k <= 3.0 for k in est.kappa_hat_per_radius)
    assert not est.blowup_flag


def test_sweep_records_every_sample():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    est = perturbation_sweep(inst, pair, [1e-2], n_per_radius=7, seed=3)
    assert len(est.samples) == 7
    for s in est.samples:
        assert s["flag"] in ("ok", "nonlocal", "nonconverged")
        assert np.isfinite(s["x_dist"])
    rows = est.csv_rows()
    assert rows[0] == ["radius", "db_norm", "dmu", "x_dist", "ratio",
                       "solver_iters", "flag"]
    assert len(rows) == 8


# ---------------------------------------------------------------------------
# instability probe


def test_probe_segment_exact_refutation():
    inst = instance_for("lasso_segment")
    pair = solve(inst)
    w = np.array([1.0, -1.0]) / np.sqrt(2)
    out = instability_probe(inst, pair, w, [1e-1, 1e-2, 1e-3])
    assert out["refuted"]
    for e in out["entries"]:
        assert e["ratio"] is None          # b_t = b exactly
        assert e["verified"]
        assert max(e["stationarity"], e["graph"]) <= 1e-10


def test_probe_no_refutation_when_kernel_trivial():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    out = instability_probe(inst, pair, np.array([1.0]), [1e-1, 1e-2])
    assert not out["refuted"]
    for e in out["entries"]:
        assert e["ratio"] is not None and e["ratio"] <= 2.0


def test_probe_one_sided_ray_direction():
    # at a face vertex the backward direction projects back onto x_bar
    doc = {"phi": {"kind": "dense", "rows": 1, "cols": 1, "entries": [1.0]},
           "b": [1.0], "mu": 1.0, "k": {"kind": "identity", "dim": 1},
           "reg": {"kind": "group_lasso", "dim": 1, "groups": [[0]],
                   "weight": 1.0}}
    inst = load_instance(json.dumps(doc))
    pair = solve(inst)           # x_bar = 0, v_bar = 1 at the ray vertex
    assert pair.x_bar[0] == pytest.approx(0.0, abs=1e-12)
    out = instability_probe(inst, pair, np.array([-1.0]), [1e-2])
    assert not out["refuted"]    # projection collapses to x_bar, x_dist = 0


def test_probe_finds_no_alternate_for_a_tilted_box_multiplier():
    # the box's multiplier tilted off the facet normal: its face is the one
    # vertex (1, 1), so the solution-set LP has no room to move from x_bar
    inst = instance_for("polyhedral_box")
    pair = solve(inst)
    pair.y_bar = np.array([1.0, 3e-9])
    out = instability_probe(inst, pair, np.array([0.0, 1.0]), [1e-1, 1e-2])
    assert out == {"available": False, "entries": [], "refuted": False,
                   "reason": "the solution set reaches no farther than the "
                             "pair's resolution along the witness"}


def test_probe_does_not_refute_a_multiplier_that_has_no_face():
    # y_bar scaled past the dual ball: no face is built, so no entry
    inst = instance_for("lasso_segment")
    pair = solve(inst)
    pair.y_bar = 1.5 * pair.y_bar
    out = instability_probe(inst, pair, np.array([1.0, -1.0]), [1e-1, 1e-2])
    assert out == {"available": False, "entries": [], "refuted": False,
                   "reason": "group 0: ||y_J|| exceeds the dual bound by 0.5"}


def test_probe_names_why_it_finds_no_alternate():
    # no step: a transverse nuclear draw's line L is {0}
    inst = load_instance(json.dumps(planted_nuclear(0, refute=False)[0]))
    out = instability_probe(inst, solve(inst), np.ones(12), [1e-2])
    assert out["reason"] == "the witness has no component along the span " \
                            "of the face"
    # an end that fails KKT: the planted seed-55 segment, read off a pair at
    # tol_kkt 1e-10, ends 1.78 from x_bar with stationarity 7.7e-9 against a
    # level-10 bound of 5.9e-9
    inst = load_instance(json.dumps(planted_nuclear(55)[0]))
    pair = solve(inst, SolverConfig(tol_kkt=1e-10))
    witness = certify_solution_map(inst, pair).conclusion_solution_map.witness
    out = instability_probe(inst, pair, witness, [1e-1, 1e-2])
    assert out["available"] is False and out["entries"] == []
    found = re.fullmatch(
        r"the solution set's end along the witness lies (\S+) from x_bar and "
        r"fails KKT at level 10: stationarity (\S+), graph (\S+), "
        r"bound (\S+)", out["reason"])
    dist, stationarity, graph, bound = map(float, found.groups())
    assert dist == pytest.approx(1.78, abs=0.01)
    assert graph <= bound < stationarity


# ---------------------------------------------------------------------------
# second subderivative quotients


def _raw(fn, x, v, w, t):
    """w's difference quotient [g(x+tw) - g(x) - t<v,w>] / (t^2/2)."""
    return float(empirics._quotient(fn, fn(x), x, v, t, w)[0])


def test_quotient_affine_region_is_zero():
    fn = l1(1).strict_value
    q = [_raw(fn, np.array([1.0]), np.array([1.0]), np.array([3.0]), t)
         for t in (1e-1, 1e-2, 1e-3)]
    assert np.allclose(q, 0.0, atol=1e-9)


def test_quotient_kink_diverges():
    fn = l1(1).strict_value
    for t in (1e-1, 1e-2):
        q = _raw(fn, np.array([0.0]), np.array([0.0]), np.array([1.0]), t)
        assert q == pytest.approx(2.0 / t)


def test_quotient_one_sided_boundary_is_zero():
    fn = l1(1).strict_value
    q = [_raw(fn, np.array([0.0]), np.array([1.0]), np.array([1.0]), t)
         for t in (1e-2, 1e-4)]
    assert np.allclose(q, 0.0, atol=1e-9)


def test_quotient_calibrates_against_known_hessian():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((3, 4))
    mu = 0.7
    fn = lambda z: float(z @ (phi.T @ phi) @ z) / mu
    x = rng.standard_normal(4)
    grad = 2.0 / mu * phi.T @ phi @ x
    for _ in range(5):
        w = rng.standard_normal(4)
        q = _raw(fn, x, grad, w, 1e-3)
        expected = 2.0 / mu * float(np.linalg.norm(phi @ w) ** 2)
        assert q == pytest.approx(expected, rel=1e-6)


def test_quotient_refinement_exposes_curved_tangent():
    # degenerate nuclear boundary direction: raw quotient is 4, the liminf
    # refinement drives it to ~0 (the direction is tangent along a curve)
    reg = nuclear(2, 2)
    x = np.diag([1.0, 0.0]).ravel()
    v = np.eye(2).ravel()
    w = np.array([[0.0, 1.0], [1.0, 0.0]]).ravel()
    fn = reg.strict_value
    raw = _raw(fn, x, v, w, 1e-5)
    assert raw == pytest.approx(4.0, rel=1e-3)
    face = rz.conj_subdiff_face(reg, v, TOL)
    refined = empirics._refined(fn, fn(x), x, v, w, 1e-5, raw, 1e-3,
                                face.project)
    assert refined <= 1e-4


# ---------------------------------------------------------------------------
# kernel formula and zero product


def test_kernel_formula_l1_example():
    out = kernel_formula_check(l1(2), np.array([1.0, 0.0]),
                               np.array([1.0, 0.5]), n_dirs=40, seed=0)
    assert out["disagreements"] == 0
    members = [d for d in out["details"] if d["member"]]
    nonmembers = [d for d in out["details"] if not d["member"]]
    assert members and nonmembers


def test_kernel_formula_group_boundary_one_sided():
    reg = group_lasso([[0, 1]], 2)
    x = np.zeros(2)
    v = np.array([0.6, 0.8])
    plus = _raw(reg.strict_value, x, v, v, 1e-5)
    minus = _raw(reg.strict_value, x, v, -v, 1e-5)
    assert plus <= 1e-9
    assert minus >= 1e3
    cone = rz.tangent_conj_subdiff(reg, v, x, TOL)
    assert cone.member(v, 1e-8) and not cone.member(-v, 1e-7)


def test_zero_product_l1_corner():
    out = zero_product_check(l1(1), np.array([0.0]), np.array([1.0]),
                             n_samples=300, seed=0)
    assert out["available"]
    assert out["positivity_violations"] == 0
    assert out["forward_violations"] == 0
    assert out["backward_violations"] == 0
    assert out["zero_products"] == 300     # the corner graph is L-shaped


def test_zero_product_affine_region():
    out = zero_product_check(l1(1), np.array([1.0]), np.array([1.0]),
                             n_samples=200, seed=1)
    assert out["forward_violations"] == 0
    assert out["backward_violations"] == 0
    assert out["zero_products"] == 200     # z = 0 on the flat piece


def test_zero_product_centres_off_graph_pair_on_the_graph():
    # v = 1 + 1e-9 is not a subgradient of |.| at 0; the graph point with the
    # same prox argument is (1e-9, 1), and samples taken about it keep
    # <z, w> >= 0 (about (0, 1 + 1e-9) it would be -1e-3 d for d > 0)
    out = zero_product_check(l1(1), np.array([0.0]), np.array([1.0 + 1e-9]),
                             n_samples=200, seed=3)
    assert out["positivity_violations"] == 0
    assert abs(out["center_shift"] - 1e-9) <= 1e-15


def test_zero_product_on_a_solved_lasso_has_no_positivity_violation():
    # the solver leaves (x_bar, v_bar) off the graph by its KKT error, which
    # division by t = 1e-6 magnified past the positivity slack
    rng = np.random.default_rng(6)
    phi = rng.standard_normal((20, 40)) / np.sqrt(20)
    x0 = np.zeros(40)
    x0[[3, 17]] = [1.5, -1.2]
    b = phi @ x0 + 0.01 * rng.standard_normal(20)
    inst = load_instance({
        "phi": {"kind": "dense", "rows": 20, "cols": 40,
                "entries": phi.ravel().tolist()},
        "b": b.tolist(), "mu": 1.0, "k": {"kind": "identity", "dim": 40},
        "reg": {"kind": "group_lasso", "dim": 40,
                "groups": [[i] for i in range(40)],
                "weight": 0.1 * float(np.abs(phi.T @ b).max())}})
    pair = solve(inst)
    out = zero_product_check(inst.reg, pair.x_bar, pair.y_bar, n_samples=200,
                             seed=0)
    assert out["positivity_violations"] == 0
    assert out["center_shift"] <= 1e-8


def test_zero_product_group_lasso_active():
    reg = group_lasso([[0, 1], [2]], 3)
    x = np.array([0.6, 0.8, 0.0])
    v = np.array([0.6, 0.8, 0.4])
    out = zero_product_check(reg, x, v, n_samples=400, seed=2)
    assert out["available"]
    assert out["positivity_violations"] == 0
    assert out["forward_violations"] == 0
    assert out["backward_violations"] == 0
    assert out["min_inner"] >= -1e-8


def test_zero_product_unsupported_cone_reports_unavailable():
    reg = nuclear(3, 3)
    x = np.diag([1.0, 0.0, 0.0]).ravel()
    v = np.eye(3).ravel()
    out = zero_product_check(reg, x, v, n_samples=10, seed=0)
    assert out["available"] is False


def test_graph_sample_exactness_along_tangent_generators():
    # kernel directions admit graph samples with z-residual ~ 0 at t = 1e-4
    reg = group_lasso([[0, 1], [2]], 3)
    x = np.array([0.6, 0.8, 0.0])
    v = np.array([0.6, 0.8, 0.4])
    cone = rz.tangent_conj_subdiff(reg, v, x, TOL)
    assert not cone.rays
    for d in cone.span.basis.T:
        s = graph_sample(reg, x, v, d, 1e-4)
        assert np.linalg.norm(s.z) <= 1e-6
        assert s.residual <= 1e-12


def test_kernel_formula_rotated_nuclear_cases():
    # non-diagonal bases exercise the simultaneous decomposition, the block
    # compression, and the face-secant liminf refinement together
    rng = np.random.default_rng(77)

    def rand_orth(k):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        return q

    reg = nuclear(2, 3)
    for trial in range(10):
        u, v = rand_orth(2), rand_orth(3)
        dx = np.zeros((2, 3))
        dx[0, 0] = rng.uniform(0.5, 2.0)
        x = (u @ dx @ v.T).ravel()
        for dy_tail in (0.4, 1.0):      # nondegenerate and degenerate
            dy = np.zeros((2, 3))
            dy[0, 0] = 1.0
            dy[1, 1] = dy_tail
            y = (u @ dy @ v.T).ravel()
            out = kernel_formula_check(reg, x, y, n_dirs=30, seed=trial)
            assert out["disagreements"] == 0, (trial, dy_tail)


def test_positivity_across_catalog():
    rng = np.random.default_rng(11)
    cases = [
        (l1(3), np.array([1.0, 0.0, -0.5]), np.array([1.0, 0.3, -1.0])),
        (group_lasso([[0, 1]], 2), np.array([0.6, 0.8]), np.array([0.6, 0.8])),
        (nuclear(2, 2), np.diag([1.0, 0.0]).ravel(), np.diag([1.0, 0.5]).ravel()),
    ]
    for reg, x, v in cases:
        for _ in range(100):
            d = rng.standard_normal(reg.dim)
            d /= np.linalg.norm(d)
            s = graph_sample(reg, x, v, d, 1e-5)
            inner = float(s.z @ s.w)
            assert inner >= -1e-8 * (1.0 + np.linalg.norm(s.z) *
                                     np.linalg.norm(s.w))


def test_kernel_formula_distance_is_finite_on_every_row():
    # every cone the lab reads projects: l1 (a subspace), a group point
    # with span and rays, a nuclear PSD point and the gallery box
    group = group_lasso([[0, 1], [2, 3]], 4)
    points = [_lab_point(_lab_instance("l1", 2)),
              (group, np.array([0.6, 0.8, 0.0, 0.0]),
               np.array([0.6, 0.8, 0.6, 0.8])),
              (nuclear(2, 2), np.diag([1.0, 0.0]).ravel(), np.eye(2).ravel()),
              _lab_point(instance_for("polyhedral_box"))]
    cones = [rz.tangent_conj_subdiff(reg, v, x, TOL) for reg, x, v in points]
    assert cones[1].span.dim and cones[1].rays
    assert isinstance(cones[2], PsdCone)
    for reg, x, v in points:
        details = kernel_formula_check(reg, x, v, n_dirs=20, seed=0)["details"]
        assert len(details) == 20
        assert all(np.isfinite(row["distance"]) for row in details)


def test_kernel_formula_check_builds_one_face(monkeypatch):
    # the tangent cone and the secant projector of every refined quotient
    # come from the same face
    counts = []
    original = rz.conj_subdiff_face
    monkeypatch.setattr(rz, "conj_subdiff_face",
                        lambda *a, **k: counts.append(1) or original(*a, **k))
    out = kernel_formula_check(l1(2), np.array([1.0, 0.0]),
                               np.array([1.0, 0.5]), n_dirs=40, seed=0)
    assert out["disagreements"] == 0
    assert any(not d["member"] for d in out["details"])   # refined quotients
    assert len(counts) == 1


def test_lab_runs_no_cone_decision(monkeypatch, tmp_path):
    # lab needs only the validated multiplier, not a whole certificate
    import calmcert.certificates as ct
    import calmcert.cones as cones
    from calmcert.cli import run
    calls = []
    original = cones.trivial_intersection
    for module in (cones, ct):
        monkeypatch.setattr(module, "trivial_intersection",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_for("lasso_segment").to_json_dict()))
    out = tmp_path / "lab.json"
    assert run(["lab", str(path), "--out", str(out), "--samples", "20"]) == 0
    assert json.loads(out.read_text())["payload"]["kernel_formula"]["n"] == 20
    assert calls == []


# ---------------------------------------------------------------------------
# K = I probes read the solution set


def _duplicated_group_instance(seed):
    """Group Lasso (groups of 4, n = 20, m = 10) with an active group's
    columns copied onto an inactive group: a segment of solutions."""
    rng = np.random.default_rng(seed)
    n, m, size = 20, 10, 4
    groups = [list(range(g * size, (g + 1) * size)) for g in range(n // size)]
    phi = rng.standard_normal((m, n)) / np.sqrt(m)
    active = rng.choice(len(groups), size=2, replace=False)
    x0 = np.zeros(n)
    for g in active:
        x0[groups[g]] = rng.choice([-1.0, 1.0], size=size) * \
            rng.uniform(1.0, 2.0, size=size)
    src = int(active[0])
    dst = int(rng.choice([g for g in range(len(groups)) if g not in active]))
    phi[:, groups[dst]] = phi[:, groups[src]]
    x0[groups[src]] *= 2.0
    b = phi @ x0 + 0.01 * rng.standard_normal(m)
    weight = 0.1 * float(np.max(np.abs(phi.T @ b)))
    doc = {"phi": {"kind": "dense", "rows": m, "cols": n,
                   "entries": phi.ravel().tolist()},
           "b": b.tolist(), "mu": 1.0, "k": {"kind": "identity", "dim": n},
           "reg": {"kind": "group_lasso", "dim": n, "groups": groups,
                   "weight": weight}}
    return load_instance(json.dumps(doc))


def test_probe_reads_a_same_data_end_off_the_solution_set_for_k_identity():
    # K = I: x_bar lies off the face by the solver error (~1e-9), but the
    # alternates are read off the solution set from x_bar itself, so they
    # solve the same data and no base point is moved
    from calmcert.certificates import certify_solution_map, solution_set_extent
    inst = _duplicated_group_instance(3)
    pair = solve(inst)
    report = certify_solution_map(inst, pair)
    witness = report.conclusion_solution_map.witness
    assert report.conclusion_solution_map.status == "not_isolated_calm"
    out = instability_probe(inst, pair, witness, [1e-1, 1e-2, 1e-3])
    end = solution_set_extent(inst, pair, witness, 10)[0]
    assert out["alternate"] == [float(v) for v in end]
    assert out["refuted"]
    assert not {"min_ratio", "base_shift", "base_db_norm",
                "base_verified"} & out.keys()
    assert [e["t"] for e in out["entries"]][:3] == [1e-1, 1e-2, 1e-3]
    assert all(e["b_dist"] == 0.0 and e["ratio"] is None and e["verified"]
               for e in out["entries"])
    assert np.linalg.norm(inst.phi.apply(end - pair.x_bar)) <= 1e-9
    assert float(witness @ (end - pair.x_bar)) > 0.0


# ---------------------------------------------------------------------------
# the stacked lab against the one-point-per-call reference


def _lab_instance(kind, seed):
    rng = np.random.default_rng(seed)
    if kind in ("nuclear_nondegenerate", "nuclear_degenerate"):
        return instance_for(kind)
    if kind == "box":
        return load_instance(json.dumps(box_document(rng, 6, False, 2)))
    if kind == "nuclear6x8":
        d = 48
        phi = rng.standard_normal((36, d)) / 6.0
        x0 = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 8))
        b = phi @ x0.ravel() + 0.01 * rng.standard_normal(36)
        reg = {"kind": "nuclear", "m": 6, "n": 8,
               "weight": 0.2 * float(np.linalg.norm((phi.T @ b).reshape(6, 8), 2))}
    else:
        n, m = 40, 20
        phi = rng.standard_normal((m, n)) / np.sqrt(m)
        x0 = np.zeros(n)
        x0[rng.choice(n, size=4, replace=False)] = rng.standard_normal(4)
        b = phi @ x0 + 0.01 * rng.standard_normal(m)
        size = 1 if kind == "l1" else 4
        reg = {"kind": "group_lasso", "dim": n,
               "groups": [list(range(i, i + size)) for i in range(0, n, size)],
               "weight": 0.1 * float(np.abs(phi.T @ b).max())}
    return load_instance({"phi": {"kind": "dense", "rows": phi.shape[0],
                                  "cols": phi.shape[1],
                                  "entries": phi.ravel().tolist()},
                          "b": b.tolist(), "mu": 1.0,
                          "k": {"kind": "identity", "dim": phi.shape[1]},
                          "reg": reg})


def _lab_point(inst):
    """(g, K x_bar, y) as the lab verb takes them."""
    from calmcert.certificates import prepare_multiplier
    pair = solve(inst)
    _, y, _ = prepare_multiplier(inst, pair)
    return inst.reg, inst.k.apply(pair.x_bar), y


def _same_float(got, want):
    return got == want or abs(got - want) <= 1e-12 * max(abs(got), abs(want))


LAB_KINDS = ["l1", "group", "nuclear6x8", "nuclear_nondegenerate",
             "nuclear_degenerate", "box"]


@pytest.mark.parametrize("kind", LAB_KINDS)
def test_stacked_lab_matches_the_reference(kind):
    reg, kx, y = _lab_point(_lab_instance(kind, 2))
    for seed in (0, 1):
        got = kernel_formula_check(reg, kx, y, seed=seed)
        floors = [row["floor"] for row in got["details"]]
        want = lab_reference.kernel_formula_check(reg, kx, y, floors, seed=seed)
        assert got["n"] == want["n"] == len(got["details"]) == \
            got["agreements"] + got["disagreements"] + len(got["near_boundary"])
        for g, w in zip(got["details"], want["details"]):
            assert (g["member"], g["estimator_member"]) == \
                (w["member"], w["estimator_member"])
            if np.isfinite(w["quotient"]):
                assert _same_float(g["quotient"], w["quotient"])
            else:
                assert g["quotient"] is None
        got = zero_product_check(reg, kx, y, seed=seed)
        want = lab_reference.zero_product_check(reg, kx, y, seed=seed)
        assert set(got) == set(want)
        for key, value in want.items():
            if isinstance(value, float):
                assert _same_float(got[key], value), key
            else:
                assert got[key] == value, key


def _counted(monkeypatch, name):
    calls = []
    original = getattr(rz, name)
    monkeypatch.setattr(rz, name, lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


@pytest.mark.parametrize("kind", ["group", "nuclear6x8"])
def test_lab_regularizer_calls_do_not_grow_with_the_samples(monkeypatch, kind):
    reg, kx, y = _lab_point(_lab_instance(kind, 3))
    values = _counted(monkeypatch, "value")
    out = kernel_formula_check(reg, kx, y, n_dirs=30, seed=0)
    assert any(d["quotient"] is None or d["quotient"] > 1e-4
               for d in out["details"])                 # some were refined
    assert len(values) <= 3 * 30
    proxes = _counted(monkeypatch, "prox")
    counts = []
    for n_samples in (20, 200):
        proxes.clear()
        assert zero_product_check(reg, kx, y, n_samples=n_samples)["available"]
        counts.append(len(proxes))
    assert counts[0] == counts[1]


def _widened(cone):
    """The cone one constraint too large: a PSD cone without the first
    column of its kernel basis (one PSD dimension dropped), a subspace plus
    rays with the coordinate direction farthest from it added to the span."""
    if isinstance(cone, PsdCone):
        return PsdCone(cone.U, cone.V, cone.p, cone.P[:, 1:], cone.m, cone.n)
    eye = np.eye(cone.ambient)
    far = eye[int(np.argmax([cone.residual(e) for e in eye]))]
    span = Subspace(cone.ambient, np.column_stack([cone.span.basis, far]))
    return SubspacePlusRays(span, cone.rays)


@pytest.mark.parametrize("kind", ["l1", "nuclear6x8", "nuclear_degenerate"])
def test_lab_finds_a_wrong_tangent_cone(monkeypatch, kind):
    reg, kx, y = _lab_point(_lab_instance(kind, 2))
    assert kernel_formula_check(reg, kx, y, seed=0)["disagreements"] == 0
    member_tangent = rz.member_tangent
    monkeypatch.setattr(rz, "member_tangent",
                        lambda *a, **k: _widened(member_tangent(*a, **k)))
    assert kernel_formula_check(reg, kx, y, seed=0)["disagreements"] >= 1
