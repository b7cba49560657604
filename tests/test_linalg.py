import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calmcert.linalg import (LinearOp, Tolerances, Subspace, beyond, dual_ball,
                            member_slack, nonzero, null_space, range_space,
                            rank_count, within)

from two_step_reference import intersect_subspaces

TOL = Tolerances()


def as_set(basis):
    return Subspace(basis.shape[0], basis)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(rank=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank=2.0)
    with pytest.raises(ValueError):
        Tolerances(kkt=-1e-9)


def test_derived_thresholds_are_ten_times_their_fields():
    tol = Tolerances(rank=3e-9, member=7e-8)
    assert tol.derived_rank == 10 * 3e-9 and tol.derived_member == 10 * 7e-8


# ---------------------------------------------------------------------------
# the tolerance rules

FLOATS = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=FLOATS, slack=st.floats(1e-12, 1e-3), scale=FLOATS)
def test_membership_is_slack_times_the_unit_floor_of_the_scale(value, slack,
                                                               scale):
    # bit for bit the product slack * max(1, scale), in that order
    assert member_slack(slack, scale) == slack * max(1.0, scale)
    assert within(value, slack, scale) == (value <= slack * max(1.0, scale))
    assert beyond(value, slack, scale) == (value > slack * max(1.0, scale))


def test_membership_is_absolute_up_to_unit_scale():
    assert within(1e-7, 1e-7) and within(1e-7, 1e-7, 0.5)
    assert beyond(2e-7, 1e-7, 1.0) and within(2e-7, 1e-7, 2.0)


def test_membership_answers_per_row_of_a_stack_and_per_slack():
    values, scales = np.array([1e-7, 3e-7, 3e-7]), np.array([0.0, 2.0, 4.0])
    assert within(values, 1e-7, scales).tolist() == [True, False, True]
    assert [within(v, 1e-7, s) for v, s in zip(values, scales)] \
        == [True, False, True]
    slacks = np.array([1e-8, 1e-7, 1e-6])
    assert within(2e-7, slacks, 2.0).tolist() == [False, True, True]
    assert beyond(2e-7, slacks, 2.0).tolist() == [True, False, False]


def test_a_nan_is_neither_within_nor_beyond():
    nan = float("nan")
    assert not within(nan, 1e-7) and not beyond(nan, 1e-7)
    assert not within(np.array([nan]), 1e-7, np.array([nan])).any()
    assert not beyond(np.array([nan]), 1e-7, np.array([nan])).any()
    assert not nonzero(nan, 1e-9, 1.0)
    outside, boundary = dual_ball(np.array([nan]), 1e-7)
    assert not outside.any() and not boundary.any()


def test_rank_counts_values_above_rank_times_scale():
    s = np.array([4.0, 4e-9, 3.9e-9, 0.0])
    assert nonzero(s, 1e-9, s[0]).tolist() == [True, False, False, False]
    assert rank_count(s, 1e-9, s[0]) == 1 and rank_count(s, 1e-9) == 3
    assert rank_count(s, 1e-9, 2.0, 0.5) == 3     # scale 2 * 0.5 = 1


def test_rank_multiplies_its_scales_in_order():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(0.1, 10.0, (2, 1000))
    bound = 1e-9 * a * b
    assert np.array_equal(nonzero(bound, 1e-9, a, b), np.zeros(1000, bool))
    assert np.array_equal(nonzero(np.nextafter(bound, 1.0), 1e-9, a, b),
                          np.ones(1000, bool))


def test_dual_ball_reads_outside_and_boundary():
    ratio = np.array([1.0 + 2e-7, 1.0 + 1e-7, 1.0, 1.0 - 1e-7, 1.0 - 2e-7])
    outside, boundary = dual_ball(ratio, 1e-7)
    assert outside.tolist() == [True, False, False, False, False]
    assert boundary.tolist() == [True, True, True, True, False]


def test_null_space_single_row():
    # solving x1 + x2 = 0 by hand
    ns = null_space(np.array([[1.0, 1.0]]), TOL)
    assert ns.dim == 1
    d = ns.basis[:, 0]
    assert abs(abs(d @ np.array([1.0, -1.0]) / np.sqrt(2)) - 1.0) < 1e-12


def test_null_space_invertible_and_zero():
    assert null_space(np.eye(2), TOL).dim == 0
    assert null_space(np.zeros((2, 2)), TOL).dim == 2


def test_range_space_cases():
    r = range_space(np.array([[1.0], [1.0]]), TOL)
    assert r.dim == 1
    assert abs(abs(r.basis[:, 0] @ np.array([1.0, 1.0]) / np.sqrt(2)) - 1.0) < 1e-12
    assert range_space(np.eye(2), TOL).dim == 2
    assert range_space(np.zeros((2, 2)), TOL).dim == 0


def test_intersect_subspaces_examples():
    e1 = as_set(np.array([[1.0], [0.0]]))
    e2 = as_set(np.array([[0.0], [1.0]]))
    assert intersect_subspaces(e1, e2, TOL).dim == 0
    full = Subspace.full(2)
    inter = intersect_subspaces(e1, full, TOL)
    assert inter.dim == 1 and e1.contains(inter.basis[:, 0], 1e-9)
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    line = as_set(v.reshape(-1, 1))
    plane = as_set(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    inter = intersect_subspaces(line, plane, TOL)
    assert inter.dim == 1
    assert abs(abs(inter.basis[:, 0] @ v) - 1.0) < 1e-9


def test_null_range_orthogonality_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
        ns = null_space(a, TOL)
        rs = range_space(a.T, TOL)
        if ns.dim and rs.dim:
            assert np.abs(ns.basis.T @ rs.basis).max() <= 1e-8


def test_rank_nullity_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, n = rng.integers(1, 7, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        # well-separated singular values by construction
        u, _, _ = np.linalg.svd(rng.standard_normal((m, m)))
        v, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
        s = np.zeros((m, n))
        for i in range(r):
            s[i, i] = 1.0 + i
        a = u @ s @ v.T
        assert null_space(a, TOL).dim + range_space(a, TOL).dim == n


def test_intersection_symmetry_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = 5
        p = as_set(rng.standard_normal((n, rng.integers(1, n + 1))))
        q = as_set(rng.standard_normal((n, rng.integers(1, n + 1))))
        ab = intersect_subspaces(p, q, TOL)
        ba = intersect_subspaces(q, p, TOL)
        assert ab.dim == ba.dim
        for j in range(ab.dim):
            assert ba.contains(ab.basis[:, j], 1e-7)
            assert p.contains(ab.basis[:, j], 1e-7)
            assert q.contains(ab.basis[:, j], 1e-7)


def test_subspace_reorthonormalization():
    # dependent columns are dropped, basis stays orthonormal
    s = Subspace(3, np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))
    assert s.dim == 1
    assert np.allclose(s.basis.T @ s.basis, np.eye(1))


# ---------------------------------------------------------------------------
# principal-angle intersection against the projector stack it replaced; the
# intersection is no longer program code but part of the two-step decision
# kept as a test reference (two_step_reference.py), and is checked here


def ref_intersect(p, q, tol):
    """The projector-stack intersection, kept only as the reference: the
    null space of [I - P P^T; I - Q Q^T] at tol.rank * sigma_max(stack)."""
    n = p.ambient_dim
    if p.dim == 0 or q.dim == 0:
        return np.zeros((n, 0))
    if p.dim == n and q.dim == n:
        # the stack is zero up to roundoff here; unless the bases were
        # exactly orthogonal, its relative threshold read that roundoff as
        # full rank and the replaced code returned {0}
        return np.eye(n)
    stack = np.vstack([np.eye(n) - p.basis @ p.basis.T,
                       np.eye(n) - q.basis @ q.basis.T])
    return null_space(stack, tol).basis


def orthonormal(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]


@st.composite
def subspace_pairs(draw):
    """(P, Q, kind) over the cases the intersection must get right.  The
    near-parallel angles keep clear of (tol.rank, 2 tol.rank], where the
    stack's threshold (its singular value is sqrt(2) sin(theta/2), cut at
    tol.rank * sigma_max with sigma_max in [1, sqrt 2]) and the sines'
    threshold may disagree."""
    kind = draw(st.sampled_from(["equal", "nested", "orthogonal", "random",
                                 "dim0", "full", "near_parallel"]))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, n))
    p = orthonormal(rng, n, k)
    if kind == "equal":
        q = p @ orthonormal(rng, k, k)             # same span, another basis
    elif kind == "nested":
        q = np.hstack([p, rng.standard_normal((n, draw(st.integers(0, n))))])
    elif kind == "orthogonal":
        basis = orthonormal(rng, n, n)
        j = draw(st.integers(0, n))
        p, q = basis[:, :j], basis[:, j:]
    elif kind == "random":
        q = rng.standard_normal((n, draw(st.integers(1, n))))
    elif kind == "dim0":
        q = np.zeros((n, 0))
    elif kind == "full":
        q = rng.standard_normal((n, n))
    else:
        if k == n:
            p, k = p[:, :n - 1], n - 1
        basis = orthonormal(rng, n, n)
        p, u = basis[:, :k], basis[:, k]
        theta = draw(st.sampled_from([1e-13, 1e-11, 1e-9 / 2, 1e-7, 1e-4, 0.3]))
        q = p.copy()
        if k:
            q[:, 0] = np.cos(theta) * p[:, 0] + np.sin(theta) * u
    if draw(st.booleans()):
        p, q = q, p
    return Subspace(n, p), Subspace(n, q), kind


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(subspace_pairs())
def test_intersection_matches_projector_stack(case):
    p, q, _ = case
    got = intersect_subspaces(p, q, TOL).basis
    want = ref_intersect(p, q, TOL)
    assert got.shape[1] == want.shape[1]
    assert np.abs(got.T @ got - np.eye(got.shape[1])).max(initial=0.0) <= 1e-12
    for j in range(got.shape[1]):
        w = got[:, j]
        assert np.linalg.norm(w - want @ (want.T @ w)) <= 1e-8
        assert p.contains(w, 1e-8) and q.contains(w, 1e-8)


def test_intersection_pairs_cover_every_dimension_outcome():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(subspace_pairs())
    def collect(case):
        p, q, kind = case
        d = intersect_subspaces(p, q, TOL).dim
        seen.add((kind, "zero" if d == 0 else "min" if d == min(p.dim, q.dim)
                  else "between"))

    collect()
    for kind in ("equal", "nested", "full", "random", "near_parallel"):
        assert (kind, "min") in seen
    for kind in ("orthogonal", "dim0", "random"):
        assert (kind, "zero") in seen
    assert ("near_parallel", "between") in seen


def test_constructed_bases_are_orthonormal_without_qr(monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 7))
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda m, *args, **kw: calls.append(m.shape) or qr(m, *args, **kw))
    spaces = [Subspace.full(7), Subspace.zero(7), null_space(a, TOL)]
    spaces += [range_space(a.T, TOL), spaces[2].complement(), Subspace(7, a.T)]
    assert calls == []
    assert [s.dim for s in spaces] == [7, 0, 4, 3, 3, 3]
    for s in spaces:
        assert np.abs(s.basis.T @ s.basis - np.eye(s.dim)).max(initial=0.0) <= 1e-12


def test_is_identity_matches_array_equal():
    # the in-place test reads a matrix as the identity exactly where
    # np.array_equal(d, np.eye(n)) does: -0.0 equals 0.0, 1e-300 does not
    signed = np.eye(3)
    signed[0, 1] = signed[2, 0] = -0.0
    tiny = np.eye(3)
    tiny[1, 2] = 1e-300
    cases = {"eye": np.eye(3), "signed zeros": signed,
             "permutation": np.eye(3)[[1, 2, 0]], "2I": 2.0 * np.eye(3),
             "1e-300 off the diagonal": tiny, "non-square": np.eye(2, 3),
             "0 x 0": np.zeros((0, 0)), "1 x 1": np.ones((1, 1))}
    for name, d in cases.items():
        expected = d.shape[0] == d.shape[1] and np.array_equal(d, np.eye(d.shape[0]))
        assert LinearOp.dense(d).is_identity is expected, name
        assert LinearOp.dense(d).adjoint.is_identity is expected, name
    assert [name for name, d in cases.items()
            if LinearOp.dense(d).is_identity] == ["eye", "signed zeros",
                                                   "0 x 0", "1 x 1"]


def test_is_identity_builds_no_identity():
    # at n = 2000 an n x n identity to compare with would take n^2 * 8 bytes
    n = 2000
    ops = [LinearOp.dense(np.eye(n)), LinearOp.dense(2.0 * np.eye(n))]
    for op in ops:
        tracemalloc.start()
        try:
            op.is_identity
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, peak
    assert [op.is_identity for op in ops] == [True, False]
