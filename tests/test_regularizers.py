import numpy as np
import pytest
import scipy.optimize

from calmcert import regularizers as rz
from calmcert.cones import PolyhedralCone, PsdCone, SubspacePlusRays, active_rows
from calmcert.gallery import tv_groups
from calmcert.linalg import Tolerances
from calmcert.model import group_lasso, l1, nuclear, polyhedral_indicator

import subdiff_reference

TOL = Tolerances()

GL = group_lasso([[0, 1], [2]], 3)
NUC = nuclear(2, 2)
BOX = polyhedral_indicator(np.vstack([np.eye(2), -np.eye(2)]),
                           np.ones(4))


def catalog():
    return [GL, l1(3), NUC, BOX]


def rand_point(reg, rng):
    return rng.standard_normal(reg.dim)


# ---------------------------------------------------------------------------
# values / prox


def test_value_group_lasso():
    # ||(3,4)|| = 5 by Pythagoras, plus |-2|
    assert rz.value(GL, np.array([3.0, 4.0, -2.0])) == pytest.approx(7.0)


def test_value_nuclear_identity():
    assert rz.value(NUC, np.eye(2).ravel()) == pytest.approx(2.0)


def test_value_polyhedral_infeasible():
    assert rz.value(BOX, np.array([2.0, 0.0])) == np.inf
    assert rz.value(BOX, np.array([0.5, -0.5])) == 0.0


def test_prox_soft_threshold():
    assert rz.prox(l1(1), 1.0, np.array([3.0]))[0] == pytest.approx(2.0)
    assert rz.prox(l1(1), 1.0, np.array([-0.5]))[0] == pytest.approx(0.0)


def test_prox_group_shrinkage():
    y = np.array([3.0, 4.0, 0.5])
    out = rz.prox(GL, 1.0, y)
    # group norm 5 shrinks by factor (1 - 1/5); singleton 0.5 collapses
    assert np.allclose(out[:2], 0.8 * y[:2])
    assert out[2] == 0.0


def test_prox_polyhedral_fixed_point():
    y = np.array([0.3, -0.7])
    assert np.allclose(rz.prox(BOX, 1.0, y), y)
    assert np.allclose(rz.prox(BOX, 1.0, np.array([2.0, 0.0])), [1.0, 0.0])


def test_prox_nuclear_svt():
    y = np.diag([3.0, 0.5]).ravel()
    out = rz.prox(NUC, 1.0, y).reshape(2, 2)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_prox_stack_and_graph_membership():
    # one contract for every kind: a stack gives its rows' answers, and
    # y - prox(1, y) is in dg(prox(1, y)); the polyhedron with no rows is g = 0
    rng = np.random.default_rng(0)
    zero_rows = polyhedral_indicator(np.zeros((0, 2)), np.zeros(0))
    for reg in (GL, l1(4), group_lasso([[0, 3], [1], [2, 4]], 5), NUC,
                nuclear(2, 3), BOX, zero_rows):
        ys = 3.0 * rng.standard_normal((25, reg.dim))
        for t in (1.0, 0.3):
            stacked = rz.prox(reg, t, ys)
            for y, row in zip(ys, stacked):
                lone = rz.prox(reg, t, y)
                assert np.linalg.norm(row - lone) \
                    <= 1e-12 * max(1.0, np.linalg.norm(y))
        for y in ys:
            x = rz.prox(reg, 1.0, y)
            assert rz.subdiff_contains(reg, x, y - x, TOL)


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(1)
    for reg in catalog():
        for _ in range(20):
            y1, y2 = 2.0 * rand_point(reg, rng), 2.0 * rand_point(reg, rng)
            d = np.linalg.norm(rz.prox(reg, 1.0, y1) - rz.prox(reg, 1.0, y2))
            assert d <= np.linalg.norm(y1 - y2) + 1e-12


# ---------------------------------------------------------------------------
# the generalized Jacobian of the group prox, against the prox itself


# l1, groups of 2 and of 4 (interleaved), and TV's mixed pairs and
# singletons on a 4 x 4 grid
JACOBIAN_CASES = {
    "l1": l1(12),
    "pairs": group_lasso([[0, 5], [1, 2], [3, 4], [6, 9], [7, 8]], 10),
    "fours": group_lasso([[0, 2, 4, 6], [1, 3, 5, 7], [8, 9, 10, 11]], 12,
                         weight=1.8),
    "tv4x4": group_lasso(tv_groups(4, 4), 32, weight=0.5)}


@pytest.mark.parametrize("name", sorted(JACOBIAN_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_prox_jacobian_matches_central_differences(name, seed):
    # D = (I + M_A)^{-1} on A, 0 on Z, read off a central difference of the
    # prox at a point with both A and Z nonempty, whose group norms all lie
    # 5e-2 or more off the kink
    reg = JACOBIAN_CASES[name]
    rng = np.random.default_rng([seed, 23])
    while True:
        u = rng.standard_normal(reg.dim)
        gap = rz.group_norms(reg, u) - reg.weight
        if np.all(np.abs(gap) > 5e-2) and np.any(gap > 0) and np.any(gap < 0):
            break
    a, m = reg.prox_jacobian(u)
    assert np.all(np.diff(a) > 0)
    assert m.shape == (a.size, a.size)
    z = np.setdiff1d(np.arange(reg.dim), a)
    tau = 1e-6
    for _ in range(4):
        h = rng.standard_normal(reg.dim)
        fd = (reg.prox(1.0, u + tau * h) - reg.prox(1.0, u - tau * h)) \
            / (2.0 * tau)
        assert np.allclose(fd[a], np.linalg.solve(np.eye(a.size) + m, h[a]),
                           rtol=0.0, atol=1e-8)
        assert np.allclose(fd[z], 0.0, rtol=0.0, atol=1e-8)


def test_prox_jacobian_block_closed_form():
    # groups {0, 2}, {1}, {3, 4} at w = 1: u_{0,2} = (3, 4) gives c = 1/5,
    # c / (1 - c) = 1/4 and unit (0.6, 0.8), so M = (I - uu^T) / 4; the
    # active singleton {1} has D = 1 and M = 0; {3, 4} is in Z.  Groups of
    # 4 at w = 1: u_J = (1, 1, 1, 1) gives c = 1/2, c / (1 - c) = 1 and
    # M = I - ones / 4.
    reg = group_lasso([[0, 2], [1], [3, 4]], 5)
    a, m = reg.prox_jacobian(np.array([3.0, 2.0, 4.0, 0.1, 0.2]))
    assert a.tolist() == [0, 1, 2]
    assert np.allclose(m, [[0.16, 0.0, -0.12], [0.0, 0.0, 0.0],
                           [-0.12, 0.0, 0.09]], rtol=0.0, atol=1e-15)
    reg = group_lasso([[0, 1, 2, 3], [4, 5, 6, 7]], 8)
    a, m = reg.prox_jacobian(np.r_[np.ones(4), 0.2 * np.ones(4)])
    assert a.tolist() == [0, 1, 2, 3]
    assert np.allclose(m, np.eye(4) - 0.25, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# subdifferential membership


def test_subdiff_l1_at_origin():
    assert rz.subdiff_contains(l1(1), np.zeros(1), np.array([0.5]), TOL)
    assert not rz.subdiff_contains(l1(1), np.zeros(1), np.array([1.5]), TOL)


def test_subdiff_active_group():
    x = np.array([0.6, 0.8])
    reg = group_lasso([[0, 1]], 2)
    assert rz.subdiff_contains(reg, x, np.array([0.6, 0.8]), TOL)
    assert not rz.subdiff_contains(reg, x, np.array([1.0, 0.0]), TOL)


def test_subdiff_polyhedral_normal_cone():
    x = np.array([1.0, 0.0])
    assert rz.subdiff_contains(BOX, x, np.array([2.0, 0.0]), TOL)
    assert not rz.subdiff_contains(BOX, x, np.array([0.0, 1.0]), TOL)
    # infeasible base point
    assert not rz.subdiff_contains(BOX, np.array([2.0, 0.0]), np.zeros(2), TOL)


def test_subdiff_nuclear_prox_route():
    x = np.diag([1.0, 0.0]).ravel()
    assert rz.subdiff_contains(NUC, x, np.diag([1.0, 0.5]).ravel(), TOL)
    assert not rz.subdiff_contains(NUC, x, np.diag([0.2, 0.5]).ravel(), TOL)


# ---------------------------------------------------------------------------
# conjugate faces and their tangents


def test_face_group_lasso_classification():
    face = rz.conj_subdiff_face(GL, np.array([0.6, 0.8, 0.5]), TOL)
    assert face.boundary == [0] and face.interior == [1]
    assert face.contains(np.array([0.6, 0.8, 0.0]), 1e-9)
    assert face.contains(np.zeros(3), 1e-9)
    assert not face.contains(np.array([0.0, 0.0, 0.5]), 1e-7)
    assert not face.contains(np.array([-0.6, -0.8, 0.0]), 1e-7)


def test_face_rejects_dual_bound_violation():
    with pytest.raises(ValueError, match="dual bound"):
        rz.conj_subdiff_face(GL, np.array([1.2, 0.9, 0.0]), TOL)


def test_face_nuclear_p1():
    face = rz.conj_subdiff_face(NUC, np.diag([1.0, 0.5]).ravel(), TOL)
    assert face.p == 1
    assert face.contains(np.diag([2.5, 0.0]).ravel(), 1e-9)
    assert not face.contains(np.diag([0.0, 1.0]).ravel(), 1e-7)
    assert not face.contains(np.diag([-1.0, 0.0]).ravel(), 1e-7)


def test_face_nuclear_degenerate_psd_block():
    face = rz.conj_subdiff_face(NUC, np.eye(2).ravel(), TOL)
    assert face.p == 2
    psd = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert face.contains(psd.ravel(), 1e-9)
    assert not face.contains(np.array([[0.0, 0.0], [0.0, -1.0]]).ravel(), 1e-7)
    assert not face.contains(np.array([[0.0, 1.0], [0.0, 0.0]]).ravel(), 1e-7)


def test_face_nuclear_empty_block():
    # ||Y|| < w: no unit singular value, so the face and its tangent are {0}
    reg = nuclear(2, 3)
    face = rz.conj_subdiff_face(reg, np.array([0.5, 0.1, 0.0, 0.0, 0.3, 0.2]),
                                TOL)
    assert face.p == 0
    x = np.random.default_rng(4).standard_normal(reg.dim)
    assert np.array_equal(face.project(x), np.zeros(reg.dim))
    assert face.contains(np.zeros(reg.dim), 1e-9)
    assert not face.contains(x, 1e-7)
    cone = face.tangent_at(np.zeros(reg.dim), TOL)
    assert cone.span.dim == 0 and not cone.rays
    assert np.array_equal(cone.project(x), np.zeros(reg.dim))


def test_tangent_conj_group_lasso_moving_point():
    cone = rz.tangent_conj_subdiff(GL, np.array([0.6, 0.8, 0.5]),
                                   np.array([0.6, 0.8, 0.0]), TOL)
    assert cone.member(np.array([0.6, 0.8, 0.0]), 1e-8)
    assert cone.member(np.array([-0.6, -0.8, 0.0]), 1e-8)      # span, not ray
    assert not cone.member(np.array([-0.8, 0.6, 0.0]), 1e-7)   # orthogonal
    assert not cone.member(np.array([0.0, 0.0, 1.0]), 1e-7)    # interior block


def test_tangent_conj_group_lasso_vertex():
    cone = rz.tangent_conj_subdiff(GL, np.array([0.6, 0.8, 0.5]),
                                   np.zeros(3), TOL)
    assert cone.member(np.array([0.6, 0.8, 0.0]), 1e-8)
    assert not cone.member(np.array([-0.6, -0.8, 0.0]), 1e-7)  # one-sided ray


def test_tangent_conj_rejects_nonmember():
    with pytest.raises(ValueError, match="distance"):
        rz.tangent_conj_subdiff(GL, np.array([0.6, 0.8, 0.5]),
                                np.array([0.0, 0.0, 1.0]), TOL)


def test_tangent_conj_nuclear_nondegenerate_is_subspace():
    cone = rz.tangent_conj_subdiff(NUC, np.diag([1.0, 0.5]).ravel(),
                                   np.diag([1.0, 0.0]).ravel(), TOL)
    assert isinstance(cone, SubspacePlusRays) and not cone.rays
    assert cone.span.dim == 1
    assert cone.member(np.diag([-3.0, 0.0]).ravel(), 1e-8)
    assert not cone.member(np.diag([0.0, 1.0]).ravel(), 1e-7)


def test_tangent_conj_nuclear_degenerate_psd_cone():
    cone = rz.tangent_conj_subdiff(NUC, np.eye(2).ravel(),
                                   np.diag([1.0, 0.0]).ravel(), TOL)
    assert isinstance(cone, PsdCone)
    # kernel direction e2: sign of the (2,2) block decides membership
    assert cone.member(np.array([[0.0, 0.0], [0.0, 2.0]]).ravel(), 1e-8)
    assert cone.member(np.array([[-5.0, 0.0], [0.0, 1.0]]).ravel(), 1e-8)
    assert not cone.member(np.array([[0.0, 0.0], [0.0, -1.0]]).ravel(), 1e-7)
    assert not cone.member(np.array([[0.0, 1.0], [0.0, 0.0]]).ravel(), 1e-7)


def test_tangent_subdiff_group_lasso_cases():
    x = np.array([0.6, 0.8, 0.0])
    cone = rz.tangent_subdiff(GL, x, np.array([0.6, 0.8, 0.5]), TOL)
    assert cone.member(np.array([0.0, 0.0, 1.0]), 1e-8)
    assert cone.member(np.array([0.0, 0.0, -1.0]), 1e-8)
    assert not cone.member(np.array([1.0, 0.0, 0.0]), 1e-7)
    cone = rz.tangent_subdiff(GL, x, np.array([0.6, 0.8, 1.0]), TOL)
    assert cone.member(np.array([0.0, 0.0, -1.0]), 1e-8)       # half-space
    assert not cone.member(np.array([0.0, 0.0, 1.0]), 1e-7)


def test_tangent_subdiff_keeps_rows_at_any_scale():
    # {x : s x <= s 1} at x = 1 with y = 0: the tangent of the normal cone
    # is the cone of the active rows, the orthant, at every row scale s
    x, y = np.ones(2), np.zeros(2)
    probes = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([1.0, 1.0]),
              np.array([1.0, -1.0])]
    for s in (1e-8, 1.0, 1e8):
        reg = polyhedral_indicator(s * np.eye(2), s * np.ones(2))
        cone = rz.tangent_subdiff(reg, x, y, TOL)
        assert [cone.member(w, 1e-9) for w in probes] == [True, False, True,
                                                          False]


def test_tangent_subdiff_l1_active_is_zero():
    cone = rz.tangent_subdiff(l1(1), np.array([1.0]), np.array([1.0]), TOL)
    assert not cone.member(np.array([1.0]), 1e-7)
    assert not cone.member(np.array([-1.0]), 1e-7)
    assert cone.member(np.zeros(1), 1e-8)


def test_tangent_subdiff_polyhedral_is_cone_plus_line():
    cone = rz.tangent_subdiff(BOX, np.array([1.0, 0.0]),
                              np.array([2.0, 0.0]), TOL)
    assert isinstance(cone, SubspacePlusRays)
    assert cone.member(np.array([5.0, 0.0]), 1e-8)
    assert cone.member(np.array([-1.0, 0.0]), 1e-8)   # span of the multiplier
    assert not cone.member(np.array([0.0, 1.0]), 1e-7)


def test_tangent_subdiff_nuclear_interior_and_boundary():
    x = np.diag([1.0, 0.0]).ravel()
    interior = rz.tangent_subdiff(NUC, x, np.diag([1.0, 0.5]).ravel(), TOL)
    assert isinstance(interior, SubspacePlusRays) and not interior.rays
    assert interior.member(np.array([[0.0, 0.0], [0.0, -3.0]]).ravel(), 1e-8)
    assert not interior.member(np.array([[1.0, 0.0], [0.0, 0.0]]).ravel(), 1e-7)
    boundary = rz.tangent_subdiff(NUC, x, np.eye(2).ravel(), TOL)
    assert isinstance(boundary, PolyhedralCone)
    assert boundary.member(np.array([[0.0, 0.0], [0.0, -1.0]]).ravel(), 1e-8)
    assert not boundary.member(np.array([[0.0, 0.0], [0.0, 1.0]]).ravel(), 1e-7)


def test_tangent_subdiff_nuclear_unsupported_returns_none():
    # two unit singular values in the residual block: no exact description
    reg = nuclear(3, 3)
    x = np.diag([1.0, 0.0, 0.0]).ravel()
    y = np.eye(3).ravel()
    assert rz.tangent_subdiff(reg, x, y, TOL) is None


# ---------------------------------------------------------------------------
# conjugate consistency and tangent realizability


def test_conjugate_consistency_group_lasso():
    pairs = [(np.array([0.6, 0.8, 0.0]), np.array([0.6, 0.8, 0.5]), True),
             (np.zeros(3), np.array([0.6, 0.8, 0.5]), True),
             (np.array([0.6, 0.8, 0.0]), np.array([1.0, 0.0, 0.5]), False),
             (np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.8, 0.5]), False)]
    for x, v, expected in pairs:
        face = rz.conj_subdiff_face(GL, v, TOL)
        assert rz.subdiff_contains(GL, x, v, TOL) == expected
        assert face.contains(x, 1e-7) == expected


def test_conjugate_consistency_nuclear_diagonal():
    x = np.diag([1.0, 0.0]).ravel()
    for v, expected in [(np.diag([1.0, 0.5]).ravel(), True),
                        (np.diag([0.5, 0.5]).ravel(), False)]:
        face = rz.conj_subdiff_face(NUC, v, TOL)
        assert rz.subdiff_contains(NUC, x, v, TOL) == expected
        assert face.contains(x, 1e-7) == expected


def _tangent_generators(cone, rng, n):
    if isinstance(cone, SubspacePlusRays):
        gens = list(cone.span.basis.T) + list(cone.rays)
        return gens
    if isinstance(cone, PsdCone):
        dirs = []
        for _ in range(6):
            p = cone.project(rng.standard_normal(n))
            if np.linalg.norm(p) > 1e-9:
                dirs.append(p / np.linalg.norm(p))
        return dirs
    return []


@pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4])
def test_tangent_realizability(t):
    rng = np.random.default_rng(42)
    cases = [
        (GL, np.array([0.6, 0.8, 0.5]), np.array([1.2, 1.6, 0.0])),
        (GL, np.array([0.6, 0.8, 0.5]), np.zeros(3)),
        (NUC, np.diag([1.0, 0.5]).ravel(), np.diag([2.0, 0.0]).ravel()),
        (NUC, np.eye(2).ravel(), np.diag([1.0, 0.0]).ravel()),
    ]
    for reg, y, x in cases:
        face = rz.conj_subdiff_face(reg, y, TOL)
        cone = face.tangent_at(x, TOL)
        for d in _tangent_generators(cone, rng, reg.dim):
            step = x + t * np.asarray(d)
            dist = np.linalg.norm(step - face.project(step))
            assert dist <= 0.01 * t


@pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4])
def test_tangent_realizability_polyhedral(t):
    rng = np.random.default_rng(43)
    face = rz.conj_subdiff_face(BOX, np.array([1.0, 0.0]), TOL)
    for x in (np.array([1.0, 0.0]), np.array([1.0, 1.0])):
        cone = face.tangent_at(x, TOL)
        for _ in range(8):
            d = rng.standard_normal(2)
            p = cone.project(d)
            if np.linalg.norm(p) < 1e-9:
                continue
            d = p / np.linalg.norm(p)
            step = x + t * d
            dist = np.linalg.norm(step - face.project(step))
            assert dist <= 0.01 * t


def test_group_lasso_conjugate_growth_inequality():
    # active-group geometry: <x_J, v_J - y_J> <= -kappa ||v_J - y_J||^2
    rng = np.random.default_rng(9)
    x = np.array([0.9, 1.2, 0.0])       # ||x_J|| = 1.5 on the active group
    y = np.array([0.6, 0.8, 0.3])
    kappa = 0.5 * 1.5
    for _ in range(200):
        v = rng.standard_normal(2)
        if np.linalg.norm(v) > 1.0:
            v = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)
        lhs = float(x[:2] @ (v - y[:2]))
        assert lhs <= -kappa * np.linalg.norm(v - y[:2]) ** 2 + 1e-12


# ---------------------------------------------------------------------------
# relative interior vs range


def test_ri_identity_always_yes(monkeypatch):
    from calmcert.model import LinearOp
    face = rz.conj_subdiff_face(GL, np.array([0.6, 0.8, 0.5]), TOL)
    assert rz.ri_intersects_range(face, LinearOp.identity(3), TOL) == "yes"
    # a polyhedral face holds K x_bar, so K = I needs no LP to say yes
    face = rz.conj_subdiff_face(BOX, np.array([1.0, 0.0]), TOL)
    monkeypatch.setattr(scipy.optimize, "linprog", None)
    assert rz.ri_intersects_range(face, LinearOp.identity(2), TOL) == "yes"


def test_ri_nuclear_nondegenerate_yes():
    from calmcert.model import LinearOp
    face = rz.conj_subdiff_face(NUC, np.diag([1.0, 0.5]).ravel(), TOL)
    out = rz.ri_intersects_range(face, LinearOp.identity(4), TOL,
                                 x_bar=np.diag([1.0, 0.0]).ravel())
    assert out == "yes"


def test_qual_polyhedral_per_kind():
    # the certificate reads qual_polyhedral off the face: group Lasso, l1 and
    # the polyhedral indicator have polyhedral faces, and only the nuclear
    # face is curved, so only it decides qual_ri
    from calmcert.certificates import certify_solution_map
    from calmcert.gallery import instance_for
    from calmcert.model import LinearOp, ProblemInstance
    from calmcert.solver import solve
    grouped = ProblemInstance(phi=LinearOp.dense([[1.0, 0.0, 0.5]]),
                              b=np.array([3.0]), mu=1.0,
                              k=LinearOp.identity(3), reg=GL)
    for inst, polyhedral in ((grouped, True),
                             (instance_for("lasso_scalar"), True),
                             (instance_for("nuclear_nondegenerate"), False),
                             (instance_for("polyhedral_box"), True)):
        report = certify_solution_map(inst, solve(inst))
        assert report.qual_polyhedral is polyhedral, inst.reg.kind
        assert (report.qual_ri is None) is polyhedral, inst.reg.kind


# ---------------------------------------------------------------------------
# polyhedral faces


def test_polyhedral_face_and_tangent():
    face = rz.conj_subdiff_face(BOX, np.array([1.0, 0.0]), TOL)
    assert face.contains(np.array([1.0, 0.5]), 1e-9)
    assert not face.contains(np.array([0.5, 0.5]), 1e-7)
    cone = face.tangent_at(np.array([1.0, 0.0]), TOL)
    assert cone.member(np.array([0.0, 1.0]), 1e-8)
    assert cone.member(np.array([0.0, -1.0]), 1e-8)
    assert not cone.member(np.array([1.0, 0.0]), 1e-7)
    cone_corner = face.tangent_at(np.array([1.0, 1.0]), TOL)
    assert cone_corner.member(np.array([0.0, -1.0]), 1e-8)
    assert not cone_corner.member(np.array([0.0, 1.0]), 1e-7)


def test_polyhedral_active_rows_do_not_depend_on_row_scale():
    # the box with rows and offsets scaled by s: at x = (1, 0.5) only the row
    # of x_1 <= 1 is active at every s (an absolute slack took every row of
    # the 1e-8 box as active, and certified the box as isolated calm)
    from dataclasses import replace
    from calmcert.certificates import certify_primal_dual
    from calmcert.gallery import instance_for
    from calmcert.solver import solve
    x, y = np.array([1.0, 0.5]), np.array([1.0, 0.0])
    base = instance_for("polyhedral_box")
    verdicts = []
    for s in (1.0, 1e-8, 1e8):
        reg = polyhedral_indicator(s * BOX.A, s * BOX.c)
        rays = rz.tangent_subdiff(reg, x, y, TOL).rays
        assert np.allclose([r / np.linalg.norm(r) for r in rays], [[1.0, 0.0]])
        rows = rz.conj_subdiff_face(reg, y, TOL).tangent_at(x, TOL).A
        assert np.allclose(rows / np.linalg.norm(rows, axis=1, keepdims=True),
                           [[1.0, 0.0]])
        assert active_rows(reg.A, reg.c, x, TOL.member).tolist() \
            == [True, False, False, False]
        inst = replace(base, reg=reg)
        report = certify_primal_dual(inst, solve(inst))
        verdicts.append((report.conclusion_solution_map.status,
                         report.conclusion_primal_dual.status,
                         report.has_unknown))
    assert verdicts == [("not_isolated_calm", "not_isolated_calm", False)] * 3


def test_polyhedral_unbounded_face_error():
    reg = polyhedral_indicator(np.eye(2), np.ones(2))   # {y <= 1}, unbounded
    with pytest.raises(ValueError, match="unbounded face"):
        rz.conj_subdiff_face(reg, np.array([-1.0, 0.0]), TOL)


def test_tangent_subdiff_nuclear_repeated_unit_values():
    # X = diag(1, 0) with Y = I: one unit value of Y lies off X's support,
    # and the cone is the half-space of the block {e_2 e_2^T} with normal
    # e_2 e_2^T
    cone = rz.tangent_subdiff(NUC, np.diag([1.0, 0.0]).ravel(),
                              np.eye(2).ravel(), TOL)
    assert isinstance(cone, PolyhedralCone) and cone.A.shape[0] == 1
    normal = cone.A[0] / np.linalg.norm(cone.A[0])
    assert np.allclose(normal, np.diag([0.0, 1.0]).ravel(), atol=1e-12)
    with pytest.raises(ValueError, match="not in dg"):
        rz.tangent_subdiff(NUC, np.diag([1.0, 0.0]).ravel(),
                           np.array([[0.0, 1.0], [1.0, 0.0]]).ravel(), TOL)


def test_tangent_subdiff_nuclear_ignores_noise_in_small_singular_values():
    # a solver leaves X = K x_bar a ~1e-10 second singular value: its
    # singular vectors, taken from X alone, are noise that Y's tail block
    # (0.5 w, below the unit block) is not diagonal in.  The cone is the
    # block u_1 (v_1, v_2)^T all the same.
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    w = 1.7
    x = 2.0 * np.outer(u[:, 0], v[:, 0]) + 1e-10 * rng.standard_normal((2, 3))
    y = w * np.outer(u[:, 0], v[:, 0]) + 0.5 * w * np.outer(u[:, 1], v[:, 1])
    cone = rz.tangent_subdiff(nuclear(2, 3, w), x.ravel(), y.ravel(), TOL)
    assert isinstance(cone, SubspacePlusRays) and not cone.rays
    block = np.kron(u[:, 1:], v[:, 1:])
    assert np.allclose(cone.span.basis @ cone.span.basis.T, block @ block.T,
                       atol=1e-8)


NUCLEAR_SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4), (1, 3))
NUCLEAR_CASES = [(m, n, r, extra) for m, n in NUCLEAR_SHAPES
                 for r in range(m + 1) for extra in range(m - r + 1)]


def nuclear_pair(i):
    """A seeded subgradient pair (X, Y) of weight * nuclear norm.

    Case i cycles through the shapes, every rank r of X and every count of
    unit values of Y / w past X's support (the rest of Y below 0.9 w); one
    draw in seven gives X a 1e-10 singular value past its rank.
    """
    rng = np.random.default_rng([i, 7])
    m, n, r, extra = NUCLEAR_CASES[i % len(NUCLEAR_CASES)]
    w = float(rng.uniform(0.3, 3.0))
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
    sx = np.zeros(m)
    sx[:r] = rng.uniform(0.5, 3.0, r)
    if i % 7 == 0 and r < m:
        sx[r] = 1e-10
    sy = np.ones(m)
    sy[r + extra:] = np.sort(rng.uniform(0.0, 0.9, m - r - extra))[::-1]
    return (nuclear(m, n, w), ((u * sx) @ v.T).ravel(),
            (w * (u * sy) @ v.T).ravel())


def _projector(rows):
    """The orthogonal projector onto the span of the rows."""
    q = np.linalg.qr(rows.T)[0] if rows.shape[0] else rows.T
    return q @ q.T


def test_nuclear_subdiff_tangent_matches_the_simultaneous_svd_reference():
    # the face's rotated singular basis against the reference's
    # simultaneous SVD of X + Y: the same variant, span, rays and unit
    # normal, and None where the reference gives None
    seen = {}
    for i in range(3000):
        reg, x, y = nuclear_pair(i)
        new = rz.tangent_subdiff(reg, x, y, TOL)
        ref = subdiff_reference.tangent_subdiff(reg, x, y, TOL)
        variant = "None" if ref is None else type(ref).__name__
        seen[variant] = seen.get(variant, 0) + 1
        assert type(new) is type(ref), i
        if isinstance(ref, SubspacePlusRays):
            gap = _projector(new.span.basis.T) - _projector(ref.span.basis.T)
            assert np.abs(gap).max(initial=0.0) <= 1e-8, i
            assert len(new.rays) == len(ref.rays) == 0, i
        elif ref is not None:
            gap = _projector(new.E) - _projector(ref.E)
            assert np.abs(gap).max(initial=0.0) <= 1e-8, i
            assert new.A.shape == ref.A.shape == (1, reg.dim), i
            unit = [a[0] / np.linalg.norm(a[0]) for a in (new.A, ref.A)]
            assert np.abs(unit[0] - unit[1]).max() <= 1e-8, i
    assert set(seen) == {"SubspacePlusRays", "PolyhedralCone", "None"}


def test_polyhedral_tangents_read_the_same_active_rows():
    # x_1 <= 1 at slack 5e-7 ||row|| (x_1 = 1 - 5e-7 ||x||), between member
    # and derived_member: both tangent cones of the zero-product pair read
    # it as active, at the slack of a derived point
    x = np.array([1.0, 0.3])
    x[0] -= 5e-7 * np.linalg.norm(x)
    y = np.zeros(2)
    assert rz.subdiff_contains(BOX, x, y, TOL)
    rows = rz.conj_subdiff_face(BOX, y, TOL).tangent_at(x, TOL).A
    rays = rz.tangent_subdiff(BOX, x, y, TOL).rays
    assert np.array_equal(rows, [[1.0, 0.0]])
    assert np.allclose(rays, rows, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# a conjugate face per build, nothing kept on the regularizer


FACE_CASES = {
    "group_lasso": (lambda: group_lasso([[0, 1], [2]], 3), [0.6, 0.8, 0.5]),
    "nuclear": (lambda: nuclear(2, 2), [1.0, 0.0, 0.0, 0.5]),
    "polyhedral": (lambda: polyhedral_indicator(
        np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)), [1.0, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(FACE_CASES))
def test_each_face_build_keeps_its_own_multiplier_and_nothing_on_reg(kind):
    make, y = FACE_CASES[kind]
    reg, y = make(), np.array(y)
    face = rz.conj_subdiff_face(reg, y, TOL)
    attributes = dict(vars(reg))
    again = rz.conj_subdiff_face(reg, y, TOL)
    assert again is not face and np.array_equal(again.y_bar, face.y_bar)
    rz.conj_subdiff_face(reg, y, Tolerances(member=2e-7))
    assert vars(reg) == attributes          # no face is kept on reg
    # the face holds its own read-only copy of the multiplier
    kept = face.y_bar.copy()
    y[0] = 0.25
    assert np.array_equal(face.y_bar, kept) and not face.y_bar.flags.writeable
    assert not np.array_equal(rz.conj_subdiff_face(reg, y, TOL).y_bar, kept)


def test_a_failed_face_build_is_not_kept(monkeypatch):
    reg = group_lasso([[0, 1], [2]], 3)
    builds, build = [], reg.face
    monkeypatch.setattr(reg, "face",
                        lambda *args: builds.append(1) or build(*args))
    for _ in range(2):
        with pytest.raises(ValueError, match="dual bound"):
            rz.conj_subdiff_face(reg, np.array([1.2, 0.9, 0.0]), TOL)
    assert len(builds) == 2


def test_group_just_past_the_unit_sphere_is_tight_for_both_cones():
    # ||y_J|| / w = 1.0000001 lies within the dual bound 1 + member in
    # doubles, though |ratio - 1| exceeds member by 6e-17: the face and the
    # tangent to dg both read the group as a boundary group at x = 0
    reg, y, x = l1(1), np.array([1.0000001]), np.zeros(1)
    assert rz.subdiff_contains(reg, x, y, TOL)
    face = rz.conj_subdiff_face(reg, y, TOL)
    assert face.boundary == [0] and face.interior == []
    ray = face.tangent_at(x, TOL)                       # R+ e_1
    assert ray.member(np.ones(1), 1e-9) and not ray.member(-np.ones(1), 1e-9)
    half = rz.tangent_subdiff(reg, x, y, TOL)           # d <= 0
    assert half.member(-np.ones(1), 1e-9) and not half.member(np.ones(1), 1e-9)
