"""The one-LP cone decision against an exact pattern enumeration, and the
one-system decision against the two-step decision it replaced.

`ref_decide` below is the activation-pattern enumeration the LP replaced,
kept here only as the oracle, in one compact exact form: a polyhedral cone
Q = {z : G z <= 0, H z = 0} is the sum of its lineality space and a pointed
part, and the pointed part is generated by its extreme rays, which are the
one-dimensional patterns null([H; L^T; G_S]) over subsets S of the rows.
So F z = z[:d] is nonzero on Q exactly when it is nonzero on the lineality
space or on one of those rays.  Small integer data makes the degenerate
cases common: opposing rays, rays inside the span, duplicated rows and
rank-deficient K.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from calmcert.cones import (LP_TOLERANCE, PolyhedralCone, PreimageCone,
                            SubspacePlusRays, _verify_witness, linear_program,
                            preimage, trivial_intersection)
from calmcert.linalg import Subspace, Tolerances
from calmcert.model import LinearOp

from two_step_reference import kernel_op, ref_trivial_intersection

TOL = Tolerances()


# ---------------------------------------------------------------------------
# reference: exact pattern enumeration on the raw system


def ref_system(n_sub, cone):
    """(G, H, d) over z = xi (polyhedral) or z = (xi, s, lam) (rays)."""
    nb = n_sub.basis
    if isinstance(cone, PolyhedralCone):
        return cone.A @ nb, cone.E @ nb, n_sub.dim
    k = cone.K if isinstance(cone, PreimageCone) else None
    inner = cone.inner if k is not None else cone
    m = nb if k is None else k @ nb
    r = np.stack(inner.rays, axis=1)
    s = inner.span.basis
    h = np.hstack([m, -s, -r])
    g = np.hstack([np.zeros((r.shape[1], m.shape[1] + s.shape[1])),
                   -np.eye(r.shape[1])])
    return g, h, n_sub.dim


def ref_null(a):
    """Null space at an absolute threshold: the data here is O(1), so rows
    left at roundoff size by the projection onto N carry no constraint."""
    _, sv, vt = np.linalg.svd(a, full_matrices=True)
    return vt[int(np.sum(sv > 1e-9)):].T


def ref_decide(n_sub, cone):
    """'trivial' or 'nontrivial' for N cap C, by pattern enumeration."""
    if n_sub.dim == 0:
        return "trivial"
    g, h, d = ref_system(n_sub, cone)
    lin = ref_null(np.vstack([h, g]))
    if np.linalg.norm(lin[:d]) > 1e-6:
        return "nontrivial"
    for size in range(g.shape[0] + 1):
        for rows in combinations(range(g.shape[0]), size):
            x = ref_null(np.vstack([h, lin.T, g[list(rows)]]))
            if x.shape[1] != 1 or np.linalg.norm(x[:d]) <= 1e-6:
                continue
            for sign in (1.0, -1.0):
                if np.all(g @ (sign * x[:, 0]) <= 1e-9):
                    return "nontrivial"
    return "trivial"


# ---------------------------------------------------------------------------
# strategies: small integer data


ints = st.integers(-2, 2)


def int_matrix(draw, rows, cols):
    return np.array([[draw(ints) for _ in range(cols)] for _ in range(rows)],
                    dtype=float).reshape(rows, cols)


def nonzero_vectors(draw, count, dim):
    out = []
    for _ in range(count):
        v = int_matrix(draw, 1, dim)[0]
        if not np.any(v):
            v[draw(st.integers(0, dim - 1))] = 1.0
        out.append(v)
    return out


@st.composite
def ray_cones(draw, dim):
    span = Subspace(dim, int_matrix(draw, dim, draw(st.integers(0, 2))))
    rays = nonzero_vectors(draw, draw(st.integers(1, 4)), dim)
    extra = draw(st.sampled_from(["none", "opposing", "in_span", "duplicate"]))
    if extra == "opposing":
        rays.append(-rays[0])
    elif extra == "duplicate":
        rays.append(2.0 * rays[-1])
    elif extra == "in_span" and span.dim:
        rays.append(span.basis[:, 0])
    return SubspacePlusRays(span, rays)


@st.composite
def cones(draw):
    """(N, C, kind) with C a ray, polyhedral or preimage-of-rays cone."""
    kind = draw(st.sampled_from(["rays", "polyhedral", "preimage"]))
    n = draw(st.integers(1, 4))
    n_sub = Subspace(n, int_matrix(draw, n, draw(st.integers(0, n))))
    if kind == "rays":
        return n_sub, draw(ray_cones(n)), kind
    if kind == "polyhedral":
        a = int_matrix(draw, draw(st.integers(1, 5)), n)
        if draw(st.booleans()):
            a = np.vstack([a, a[:1]])              # duplicated row
        e = int_matrix(draw, draw(st.integers(0, 2)), n)
        return n_sub, PolyhedralCone(a, e, ambient=n), kind
    p = draw(st.integers(1, 4))
    k = int_matrix(draw, p, n)
    if draw(st.booleans()):
        k[-1] = k[0]                               # rank-deficient K
    cone = preimage(k, draw(ray_cones(p)), TOL)
    if not isinstance(cone, PreimageCone):         # K = I folds back
        kind = "rays"
    return n_sub, cone, kind


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def is_identity(m):
    """M = I exactly: Ker M = {0} needs no certificate."""
    return m.shape[0] == m.shape[1] and np.array_equal(m, np.eye(m.shape[0]))


def check_verdict(n_sub, cone, v):
    assert not v.is_unknown, v.reason
    if v.is_nontrivial:
        assert abs(np.linalg.norm(v.witness) - 1.0) < 1e-9
        assert n_sub.residual(v.witness) <= 10 * TOL.member
        assert cone.member(v.witness, 10 * TOL.member)
    elif v.certificate is None:
        assert is_identity(kernel_op(n_sub))
    else:
        assert v.certificate.verify(TOL)


def scaled(cone, s):
    """The same cone with its rows (polyhedral) or K (preimage) times s.

    s = "rows" multiplies the rows of a polyhedral cone by 1e12 and 1e-12
    in turn, so that neighbouring rows are 24 orders of magnitude apart.
    """
    if isinstance(cone, PolyhedralCone):
        if s == "rows":
            return PolyhedralCone(
                cone.A * np.where(np.arange(len(cone.A)) % 2, 1e-12, 1e12)[:, None],
                cone.E * np.where(np.arange(len(cone.E)) % 2, 1e12, 1e-12)[:, None],
                ambient=cone.ambient)
        return PolyhedralCone(s * cone.A, s * cone.E, ambient=cone.ambient)
    if isinstance(cone, PreimageCone) and s != "rows":
        return PreimageCone(s * cone.K, cone.inner)
    return cone


@SETTINGS
@given(cones(), st.sampled_from([1e-12, 1e-9, 1e9, 1e12, "rows"]))
def test_decision_matches_pattern_enumeration(case, s):
    n_sub, cone, _ = case
    v = trivial_intersection(kernel_op(n_sub), cone, TOL)
    check_verdict(n_sub, cone, v)
    assert v.outcome == ref_decide(n_sub, cone)
    # membership slack is per row, so rescaling rows or K changes nothing
    cone = scaled(cone, s)
    rescaled = trivial_intersection(kernel_op(n_sub), cone, TOL)
    check_verdict(n_sub, cone, rescaled)
    assert rescaled.outcome == v.outcome


def test_drawn_cases_cover_every_kind_and_outcome():
    seen = set()

    @settings(SETTINGS, max_examples=150)
    @given(cones())
    def collect(case):
        n_sub, cone, kind = case
        v = trivial_intersection(kernel_op(n_sub), cone, TOL)
        seen.add((kind, v.outcome))

    collect()
    assert seen == {(k, o) for k in ("rays", "polyhedral", "preimage")
                    for o in ("trivial", "nontrivial")}


# ---------------------------------------------------------------------------
# near the rank threshold: the one-system decision against the two-step one


THETAS = [0.0, 1e-13, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-5, 1e-2]
BAND = (1e-10, 1e-8)                   # a factor 10 either side of tol.rank


@st.composite
def threshold_pairs(draw):
    """(M, C, theta, kind) with M = [rows of an orthonormal basis of the
    complement of N; theta d^T], d a unit vector of N: M has singular values
    1 and theta, and its kernel is N for theta below tol.rank and N cap d^perp
    above it.  C is drawn by `cones`, or is a subspace cone, or a subspace
    or ray cone that contains d."""
    kind = draw(st.sampled_from(["cones", "subspace", "aligned"]))
    if kind == "cones":
        n_sub, cone, _ = draw(cones())
        n = n_sub.ambient_dim
    else:
        n = draw(st.integers(1, 4))
        n_sub = Subspace(n, int_matrix(draw, n, draw(st.integers(0, n))))
    if not n_sub.dim:
        n_sub = Subspace(n, np.eye(n)[:, :1])
    d = n_sub.basis[:, 0]
    if kind == "subspace":
        cols = draw(st.integers(1, n))
        cone = SubspacePlusRays(Subspace(n, int_matrix(draw, n, cols)))
    elif kind == "aligned":
        other = int_matrix(draw, n, draw(st.integers(0, 2)))
        if draw(st.booleans()):
            cone = SubspacePlusRays(Subspace(n, np.column_stack([d, other])))
        else:
            rays = nonzero_vectors(draw, draw(st.integers(0, 2)), n)
            cone = SubspacePlusRays(Subspace(n, other), [d] + rays)
    theta = draw(st.sampled_from(THETAS))
    return np.vstack([kernel_op(n_sub), theta * d]), cone, theta, kind


def verifies(m, cone, v):
    """A decisive verdict carries a witness or certificate that re-verifies."""
    if v.is_nontrivial:
        w = v.witness
        return (abs(np.linalg.norm(w) - 1.0) < 1e-9
                and np.linalg.norm(m @ w) <= 10 * TOL.rank * np.linalg.norm(m, 2)
                and cone.member(w, 10 * TOL.member))
    if v.certificate is None:
        return is_identity(m)
    return v.certificate.verify(TOL)


@settings(SETTINGS, max_examples=400)
@given(threshold_pairs(), st.sampled_from([1.0, 1e-9, 1e9]))
def test_decision_matches_two_step_reference_near_the_rank_threshold(case, s):
    m, cone, theta, _ = case
    m = s * m                          # the rank scale is relative to ||M||
    v = trivial_intersection(m, cone, TOL)
    if not v.is_unknown:
        assert verifies(m, cone, v)
    if BAND[0] <= theta <= BAND[1]:
        return
    assert not v.is_unknown, v.reason
    assert v.outcome == ref_trivial_intersection(m, cone, TOL).outcome


def test_threshold_pairs_flip_at_the_threshold():
    """Some drawn pairs change verdict across the threshold, on each kind."""
    flips = set()

    @settings(SETTINGS, max_examples=200)
    @given(threshold_pairs())
    def collect(case):
        m, cone, theta, kind = case
        if not theta:
            return
        low, high = m.copy(), m.copy()
        low[-1] *= 1e-11 / theta
        high[-1] *= 1e-7 / theta
        if trivial_intersection(low, cone, TOL).outcome \
                != trivial_intersection(high, cone, TOL).outcome:
            flips.add(kind)

    collect()
    assert flips == {"cones", "subspace", "aligned"}


# ---------------------------------------------------------------------------
# hand-made degenerate cases


def test_opposing_rays_make_a_line():
    line = Subspace(2, np.array([[1.0], [0.0]]))
    cone = SubspacePlusRays(Subspace.zero(2), [np.array([1.0, 0.0]),
                                               np.array([-1.0, 0.0])])
    v = trivial_intersection(kernel_op(line), cone, TOL)
    check_verdict(line, cone, v)
    assert v.is_nontrivial
    other = Subspace(2, np.array([[0.0], [1.0]]))
    v = trivial_intersection(kernel_op(other), cone, TOL)
    check_verdict(other, cone, v)
    assert v.is_trivial


def test_kernel_of_k_is_a_witness():
    k = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    inner = SubspacePlusRays(Subspace.zero(2), [np.array([1.0, 0.0])])
    cone = preimage(k, inner, TOL)
    n_sub = Subspace(3, np.array([[1.0], [-1.0], [0.0]]))
    v = trivial_intersection(kernel_op(n_sub), cone, TOL)
    check_verdict(n_sub, cone, v)
    assert v.is_nontrivial


def test_a_witness_is_refused_unless_it_is_nonzero_in_the_kernel_and_cone():
    # M = [1 0] (||M|| = 1), C the ray through e2: only a positive multiple
    # of e2 verifies, and it comes back at unit norm
    m = np.array([[1.0, 0.0]])
    ray = SubspacePlusRays(Subspace.zero(2), [np.array([0.0, 1.0])])
    assert _verify_witness(m, 1.0, ray, np.zeros(2), TOL) is None
    assert _verify_witness(m, 1.0, ray, np.array([1e-6, 1.0]), TOL) is None
    assert _verify_witness(m, 1.0, ray, np.array([0.0, -1.0]), TOL) is None
    assert _verify_witness(m, 1.0, ray, np.array([0.0, 3.0]), TOL).tolist() \
        == [0.0, 1.0]


def test_duplicated_rows_pointed_cone_is_trivial():
    a = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, -1.0]])
    n_sub = Subspace.full(2)
    v = trivial_intersection(kernel_op(n_sub), PolyhedralCone(a, None, ambient=2),
                             TOL)
    assert v.is_trivial
    cert = v.certificate
    assert cert.verify(TOL)
    assert cert.implicit.all() and np.all(cert.mu >= 1.0)


def test_zero_kernel_needs_no_certificate():
    # M = I is read from the operator: its kernel is {0} before any work
    cone = SubspacePlusRays(Subspace.zero(3), [np.eye(3)[0]])
    v = trivial_intersection(LinearOp.identity(3), cone, TOL)
    assert v.is_trivial and v.certificate is None


def test_equalities_alone_decide_with_a_zero_certificate(lp_calls):
    # an invertible matrix M: F vanishes on null(H) already, so no LP runs
    # and the certificate is mu = 0, beta = 0 over no implicit rows
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    rays = SubspacePlusRays(Subspace(3, rng.standard_normal((3, 1))),
                            [np.eye(3)[0], -np.eye(3)[1]])
    poly = PolyhedralCone(rng.standard_normal((4, 3)), None, ambient=3)
    pre = preimage(rng.standard_normal((2, 3)),
                   SubspacePlusRays(Subspace.zero(2), [np.ones(2)]), TOL)
    for cone in (rays, poly, pre):
        v = trivial_intersection(m, cone, TOL)
        assert v.is_trivial
        cert = v.certificate
        assert cert.verify(TOL)
        assert not cert.implicit.any()
        assert not cert.mu.any() and not cert.beta.any()
    assert lp_calls == []


def test_tampered_certificate_fails_verification():
    a = np.array([[-1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
    v = trivial_intersection(np.zeros((0, 2)), PolyhedralCone(a, None, ambient=2),
                             TOL)
    cert = v.certificate
    assert cert.verify(TOL)
    scaled = replace(cert, mu=cert.mu * np.array([1.0, 2.0, 1.0]))
    assert not scaled.verify(TOL)                  # G^T mu + H^T beta != 0
    assert not replace(cert, mu=0.5 * cert.mu, beta=0.5 * cert.beta).verify(TOL)
    assert not replace(cert, implicit=np.zeros(3, dtype=bool)).verify(TOL)


# ---------------------------------------------------------------------------
# one LP per decision


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


def _big_cases():
    rng = np.random.default_rng(5)
    n = 30
    n_sub = Subspace(n, rng.standard_normal((n, 12)))
    rays = SubspacePlusRays(Subspace(n, rng.standard_normal((n, 2))),
                            [rng.standard_normal(n) for _ in range(40)])
    poly = PolyhedralCone(rng.standard_normal((45, n)),
                          rng.standard_normal((3, n)), ambient=n)
    orthant = SubspacePlusRays(Subspace.zero(n), list(np.eye(n)))
    pre = preimage(rng.standard_normal((n, n)), orthant, TOL)
    return n_sub, [rays, poly, pre, orthant]


def test_one_lp_per_decision(lp_calls):
    n_sub, cases = _big_cases()
    for cone in cases:
        before = len(lp_calls)
        v = trivial_intersection(kernel_op(n_sub), cone, TOL)
        assert not v.is_unknown
        assert len(lp_calls) - before == 1


# ---------------------------------------------------------------------------
# the one LP entry


def test_linear_program_variables_are_free_unless_bounded():
    # min x0 + x1 over x0 >= -2 (written -x0 <= 2) and x0 + x1 = -1
    lp = linear_program(np.array([1.0, 1.0]), [[-1.0, 0.0]], [2.0],
                        [[1.0, 1.0]], [-1.0])
    assert lp.status == 0 and lp.value == pytest.approx(-1.0)
    lp = linear_program(np.array([1.0, 0.0]), [[-1.0, 0.0]], [2.0])
    assert lp.status == 0 and lp.x[0] == pytest.approx(-2.0)
    lp = linear_program(np.array([1.0, 0.0]), bounds=(0.5, 3.0))
    assert lp.status == 0 and lp.x[0] == pytest.approx(0.5)


def test_linear_program_multipliers_cancel_the_cost():
    # c + A_ub^T ineq + A_eq^T eq = 0 on the free variables, ineq >= 0
    rng = np.random.default_rng(3)
    a_ub, a_eq = rng.standard_normal((6, 3)), rng.standard_normal((1, 3))
    c = -a_ub.T @ rng.uniform(0.5, 1.0, 6)        # bounded below
    lp = linear_program(c, a_ub, np.ones(6), a_eq, np.zeros(1))
    assert lp.status == 0
    assert np.all(lp.ineq >= -1e-12)
    assert np.allclose(c + a_ub.T @ lp.ineq + a_eq.T @ lp.eq, 0.0, atol=1e-9)
    assert lp.value == pytest.approx(float(c @ lp.x))


def test_linear_program_statuses_carry_no_point():
    infeasible = linear_program(np.zeros(1), [[1.0], [-1.0]], [-1.0, -1.0])
    unbounded = linear_program(np.array([1.0]), [[1.0]], [1.0])
    assert (infeasible.status, unbounded.status) == (2, 3)
    assert infeasible.x is None and unbounded.ineq is None
    assert "infeasible" in infeasible.message


def test_linear_program_solves_at_the_solver_floor(monkeypatch):
    seen = []
    real = scipy.optimize.linprog

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    linear_program(np.zeros(2), [[1.0, 1.0]], [1.0])
    assert seen[0]["method"] == "highs"
    assert seen[0]["options"] == {"primal_feasibility_tolerance": LP_TOLERANCE,
                                  "dual_feasibility_tolerance": LP_TOLERANCE}
    assert LP_TOLERANCE == 1e-10
