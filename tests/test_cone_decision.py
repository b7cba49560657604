"""The one-LP cone decision against an exact pattern enumeration.

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

from calmcert.cones import (PolyhedralCone, PreimageCone, SubspacePlusRays,
                            preimage, trivial_intersection)
from calmcert.linalg import Subspace, Tolerances

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


def check_verdict(n_sub, cone, v):
    assert not v.is_unknown, v.reason
    if v.is_nontrivial:
        assert abs(np.linalg.norm(v.witness) - 1.0) < 1e-9
        assert n_sub.residual(v.witness) <= 10 * TOL.member
        assert cone.member(v.witness, 10 * TOL.member)
    elif n_sub.dim:
        assert v.certificate is not None and v.certificate.verify(TOL)


def scaled(cone, s):
    """The same cone with its rows (polyhedral) or K (preimage) times s."""
    if isinstance(cone, PolyhedralCone):
        return PolyhedralCone(s * cone.A, s * cone.E, ambient=cone.ambient)
    if isinstance(cone, PreimageCone):
        return PreimageCone(s * cone.K, cone.inner)
    return cone


@SETTINGS
@given(cones(), st.sampled_from([1e-9, 1e9]))
def test_decision_matches_pattern_enumeration(case, s):
    n_sub, cone, _ = case
    v = trivial_intersection(n_sub, cone, TOL)
    check_verdict(n_sub, cone, v)
    assert v.outcome == ref_decide(n_sub, cone)
    # rescaled data may end undecided (membership slack is absolute), but
    # never with the opposite verdict
    rescaled = trivial_intersection(n_sub, scaled(cone, s), TOL)
    assert rescaled.outcome in (v.outcome, "unknown")


def test_drawn_cases_cover_every_kind_and_outcome():
    seen = set()

    @settings(SETTINGS, max_examples=150)
    @given(cones())
    def collect(case):
        n_sub, cone, kind = case
        seen.add((kind, trivial_intersection(n_sub, cone, TOL).outcome))

    collect()
    assert seen == {(k, o) for k in ("rays", "polyhedral", "preimage")
                    for o in ("trivial", "nontrivial")}


# ---------------------------------------------------------------------------
# hand-made degenerate cases


def test_opposing_rays_make_a_line():
    line = Subspace(2, np.array([[1.0], [0.0]]))
    cone = SubspacePlusRays(Subspace.zero(2), [np.array([1.0, 0.0]),
                                               np.array([-1.0, 0.0])])
    v = trivial_intersection(line, cone, TOL)
    check_verdict(line, cone, v)
    assert v.is_nontrivial
    other = Subspace(2, np.array([[0.0], [1.0]]))
    v = trivial_intersection(other, cone, TOL)
    check_verdict(other, cone, v)
    assert v.is_trivial


def test_kernel_of_k_is_a_witness():
    k = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    inner = SubspacePlusRays(Subspace.zero(2), [np.array([1.0, 0.0])])
    cone = preimage(k, inner, TOL)
    n_sub = Subspace(3, np.array([[1.0], [-1.0], [0.0]]))
    v = trivial_intersection(n_sub, cone, TOL)
    check_verdict(n_sub, cone, v)
    assert v.is_nontrivial


def test_duplicated_rows_pointed_cone_is_trivial():
    a = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, -1.0]])
    n_sub = Subspace.full(2)
    v = trivial_intersection(n_sub, PolyhedralCone(a, None, ambient=2), TOL)
    assert v.is_trivial
    cert = v.certificate
    assert cert.verify(TOL)
    assert cert.implicit.all() and np.all(cert.mu >= 1.0)


def test_zero_kernel_needs_no_certificate():
    cone = SubspacePlusRays(Subspace.zero(3), [np.eye(3)[0]])
    v = trivial_intersection(Subspace.zero(3), cone, TOL)
    assert v.is_trivial and v.certificate is None


def test_tampered_certificate_fails_verification():
    a = np.array([[-1.0, 0.0], [1.0, 1.0], [0.0, -1.0]])
    v = trivial_intersection(Subspace.full(2), PolyhedralCone(a, None, ambient=2),
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
        v = trivial_intersection(n_sub, cone, TOL)
        assert not v.is_unknown
        assert len(lp_calls) - before == 1
