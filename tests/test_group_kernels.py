"""Loop-free group-Lasso kernels and cones against per-group references.

The reference functions below are the per-group loops the kernels replaced,
and the product of per-group cones that the face and tangent cones were
assembled from; they live here only, as the oracle.  Partitions are drawn
unsorted and non-contiguous, as singletons, as one big group, and with
empty groups.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calmcert import regularizers as rz
from calmcert.cones import PolyhedralCone, SubspacePlusRays
from calmcert.linalg import Subspace, Tolerances
from calmcert.model import group_lasso

TOL = Tolerances()
REL = 1e-14


# ---------------------------------------------------------------------------
# reference loops (one group at a time)


def ref_value(reg, y):
    return reg.weight * sum(float(np.linalg.norm(y[g])) for g in reg.group_slices)


def ref_prox(reg, t, y):
    out = y.copy()
    tw = t * reg.weight
    for g in reg.group_slices:
        nrm = float(np.linalg.norm(y[g]))
        out[g] = 0.0 if nrm <= tw else (1.0 - tw / nrm) * y[g]
    return out


def ref_subdiff_contains(reg, x, v, tol):
    """The prox-graph residual rule on the per-group prox loop; None where
    the residual is within the kernels' roundoff of its bound, and either
    answer is right."""
    u = x + v
    resid = float(np.linalg.norm(x - ref_prox(reg, 1.0, u)))
    bound = tol.member * max(1.0, float(np.linalg.norm(u)))
    roundoff = 10 * REL * max(1.0, float(np.linalg.norm(u)),
                              float(np.linalg.norm(x)))
    if abs(resid - bound) <= roundoff:
        return None
    return resid <= bound


def assert_membership_matches(reg, x, v, ref_reg=None):
    ref = ref_subdiff_contains(ref_reg or reg, x, v, TOL)
    assert ref is None or rz.subdiff_contains(reg, x, v, TOL) == ref


def assert_close(new, ref, *inputs):
    scale = max([1.0, float(np.linalg.norm(ref))]
                + [float(np.linalg.norm(a)) for a in inputs])
    assert float(np.linalg.norm(np.asarray(new) - np.asarray(ref))) <= REL * scale


# ---------------------------------------------------------------------------
# strategies


@st.composite
def partitions(draw):
    dim = draw(st.integers(1, 12))
    order = draw(st.permutations(range(dim)))
    shape = draw(st.sampled_from(["random", "singletons", "one"]))
    if shape == "singletons":
        cuts = list(range(1, dim))
    elif shape == "one":
        cuts = []
    else:
        cuts = sorted(draw(st.sets(st.integers(1, dim - 1)))) if dim > 1 else []
    groups = [list(order[a:b]) for a, b in zip([0] + cuts, cuts + [dim])]
    for _ in range(draw(st.integers(0, 2))):
        groups.insert(draw(st.integers(0, len(groups))), [])
    return groups, dim


entries = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)


@st.composite
def cases(draw):
    """A partition, a weight w and step t, a point x, a multiplier v in dg(x)
    perturbed by noise of a drawn size, and a free point y.

    Each group of x is free, zero, or on an edge: ||x_J|| exactly at the
    activity threshold tol.member * max(1, ||x||), y_J exactly at the prox
    or dual-ball threshold, and v_J past the dual bound by exactly
    tol.member * max(1, w).
    """
    groups, dim = draw(partitions())
    reg = group_lasso(groups, dim, weight=draw(st.floats(0.05, 5.0)))
    t = draw(st.floats(0.01, 10.0))
    vec = st.lists(entries, min_size=dim, max_size=dim).map(np.array)
    x, y, d = draw(vec), draw(vec), draw(vec)
    w = reg.weight
    v = np.zeros(dim)
    edges = []
    for g in reg.group_slices:
        if not len(g):
            continue
        kind = draw(st.sampled_from(["free", "zero", "edge"]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind != "free":
            x[g] = 0.0
        if kind == "edge":
            edges.append((g[0], sign))
            y[g] = 0.0
            y[g[-1]] = sign * draw(st.sampled_from([t * w, w]))
            v[g[0]] = sign * (w + TOL.member * max(1.0, w))
            continue
        nx = float(np.linalg.norm(x[g]))
        if nx > 0.0:
            v[g] = w * x[g] / nx
        else:
            nd = float(np.linalg.norm(d[g]))
            if nd > 0.0:
                v[g] = draw(st.floats(0.0, 1.0)) * w * d[g] / nd
    on = TOL.member * max(1.0, float(np.linalg.norm(x)))
    for i, sign in edges:
        x[i] = sign * on
    v = v + draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 1e-3, 1.0])) * d
    return reg, t, x, v, y


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# properties


@SETTINGS
@given(cases())
def test_prox_and_value_match_reference(case):
    reg, t, x, v, y = case
    for point in (x, y, v, 3.0 * y):
        assert_close(rz.prox(reg, t, point), ref_prox(reg, t, point), point)
        assert_close(rz.value(reg, point), ref_value(reg, point), point)


@SETTINGS
@given(cases())
def test_membership_and_multiplier_match_reference(case):
    reg, _, x, v, y = case
    assert_membership_matches(reg, x, v)
    assert_membership_matches(reg, x, y)


def test_membership_reference_cases_cover_both_outcomes():
    """The drawn cases exercise both answers of subdiff_contains."""
    seen = set()

    @settings(SETTINGS, max_examples=50)
    @given(cases())
    def collect(case):
        reg, _, x, v, _ = case
        seen.add(rz.subdiff_contains(reg, x, v, TOL))

    collect()
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# empty groups contribute nothing, wherever they sit


@pytest.mark.parametrize("groups", [[[], [2, 0], [1]], [[2, 0], [], [1]],
                                    [[2, 0], [1], []]],
                         ids=["first", "middle", "last"])
def test_empty_group_contributes_nothing(groups):
    reg = group_lasso(groups, 3, weight=0.7)
    plain = group_lasso([g for g in groups if g], 3, weight=0.7)
    assert len(reg.group_slices) == 3          # faces keep the group indices
    assert np.array_equal(reg.segments.perm, plain.segments.perm)
    assert np.array_equal(reg.segments.starts, [0, 2])
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        x[[0, 2]] *= rng.integers(0, 2)
        for r in (reg, plain):
            assert rz.value(r, y) == pytest.approx(ref_value(reg, y), rel=REL)
            assert_close(rz.prox(r, 0.5, y), ref_prox(reg, 0.5, y), y)
            assert_membership_matches(r, x, y, reg)


# ---------------------------------------------------------------------------
# faces and tangent cones against the product of per-group cones


def ref_product(n, comps):
    """Flatten a product of per-group cones, as the former ProductCone and
    its simplify branch did: subspace/ray blocks into one span plus rays,
    otherwise every block into rows of one polyhedral cone (the subspace
    blocks, which have no rays there, as the equations of their
    complements)."""
    if all(isinstance(c, SubspacePlusRays) for _, c in comps):
        cols, rays = [], []
        for ix, c in comps:
            sub = c.span
            if sub.dim:
                col = np.zeros((n, sub.dim))
                col[ix] = sub.basis
                cols.append(col)
            for r in c.rays:
                ray = np.zeros(n)
                ray[ix] = r
                rays.append(ray)
        span = Subspace(n, np.hstack(cols) if cols else np.zeros((n, 0)))
        return SubspacePlusRays(span, rays)
    a_rows, e_rows = [np.zeros((0, n))], [np.zeros((0, n))]
    for ix, c in comps:
        if isinstance(c, SubspacePlusRays):
            a, e = np.zeros((0, len(ix))), c.span.complement().basis.T
        else:
            a, e = c.A, c.E
        for rows, out in ((a, a_rows), (e, e_rows)):
            full = np.zeros((rows.shape[0], n))
            full[:, ix] = rows
            out.append(full)
    return PolyhedralCone(np.vstack(a_rows), np.vstack(e_rows), ambient=n)


def ref_face(reg, y, tol):
    """(boundary, interior) group ids, one group at a time."""
    boundary, interior = [], []
    for gi, g in enumerate(reg.group_slices):
        ratio = float(np.linalg.norm(y[g])) / reg.weight
        if ratio > 1.0 + tol.member:
            raise ValueError(
                f"group {gi}: ||y_J|| exceeds the dual bound by {ratio - 1.0:.3g}")
        (boundary if ratio >= 1.0 - tol.member else interior).append(gi)
    return boundary, interior


def ref_unit(reg, y, gi):
    g = reg.group_slices[gi]
    return y[g] / np.linalg.norm(y[g])


def ref_face_project(reg, y, boundary, x):
    out = np.zeros_like(x)
    for gi in boundary:
        u = ref_unit(reg, y, gi)
        out[reg.group_slices[gi]] = max(0.0, float(u @ x[reg.group_slices[gi]])) * u
    return out


def ref_tangent_at(reg, y, boundary, x, tol):
    comps = []
    scale = max(1.0, float(np.linalg.norm(x)))
    for gi, g in enumerate(reg.group_slices):
        nb = len(g)
        if gi not in boundary:
            comps.append((g, SubspacePlusRays(Subspace.zero(nb))))
            continue
        u = ref_unit(reg, y, gi)
        if float(u @ x[g]) > tol.member * scale:
            comps.append((g, SubspacePlusRays(Subspace(nb, u.reshape(-1, 1)))))
        else:
            comps.append((g, SubspacePlusRays(Subspace.zero(nb), [u])))
    return ref_product(reg.dim, comps)


def ref_tangent_subdiff(reg, x, y, tol):
    comps = []
    _, active = rz.active_groups(reg, x, tol)
    ratios = rz.group_norms(reg, y) / reg.weight
    for g, act, ny in zip([g for g in reg.group_slices if len(g)], active, ratios):
        nb = len(g)
        if act:
            comps.append((g, SubspacePlusRays(Subspace.zero(nb))))
        elif ny < 1.0 - tol.member:
            comps.append((g, SubspacePlusRays(Subspace.full(nb))))
        else:
            comps.append((g, PolyhedralCone(y[g].reshape(1, -1), ambient=nb)))
    return ref_product(reg.dim, comps)


def assert_same_span(p, q):
    assert p.dim == q.dim
    gap = p.basis @ p.basis.T - q.basis @ q.basis.T
    assert float(np.abs(gap).max(initial=0.0)) <= 1e-12


def assert_same_cone(new, ref, probes):
    """Same variant, span, rays and rows, and the same membership answers."""
    assert type(new) is type(ref)
    if isinstance(ref, SubspacePlusRays):
        assert_same_span(new.span, ref.span)
        assert len(new.rays) == len(ref.rays)
        for r_new, r_ref in zip(new.rays, ref.rays):
            assert np.allclose(r_new, r_ref, rtol=0.0, atol=1e-15)
        generators = list(ref.span.basis.T) + list(ref.rays)
    else:
        assert np.array_equal(new.A, ref.A) and np.array_equal(new.E, ref.E)
        generators = [-r for r in ref.A]
    generators += [-g for g in generators] + [sum(generators, np.zeros(ref.ambient))]
    for w in list(probes) + generators:
        assert new.member(w, 1e-9) == ref.member(w, 1e-9)


@st.composite
def face_cases(draw):
    """A partition, a weight w, a multiplier y and a point x on its face.

    Each group is interior (||y_J|| < w, x_J = 0), boundary (y_J = w u_J,
    x_J = c u_J with c = 0, a vertex, or c > 0, moving) or an edge: y_J
    and x_J have one nonzero entry, ||y_J|| / w sits on a face or cone
    threshold and x_J on the tangent's and the activity threshold
    tol.member * max(1, ||x||).  One entry keeps those values exact in any
    summation order.  Rarely a group exceeds the dual bound.
    """
    groups, dim = draw(partitions())
    reg = group_lasso(groups, dim, weight=draw(st.floats(0.05, 5.0)))
    w = reg.weight
    y, x = np.zeros(dim), np.zeros(dim)
    direction = st.lists(entries, min_size=1, max_size=dim).map(np.array)
    edges = []
    for g in reg.group_slices:
        if not len(g):
            continue
        kind = draw(st.sampled_from(["interior", "boundary", "boundary", "edge",
                                     "edge"]))
        if kind == "edge":
            sign = draw(st.sampled_from([1.0, -1.0]))
            ratio = draw(st.sampled_from([1.0, 1.0 - TOL.member, 1.0 + TOL.member,
                                          1.0 - 2 * TOL.member, 1.0 + 1e-3]))
            y[g[-1]] = sign * ratio * w
            if abs(ratio - 1.0) <= TOL.member:
                edges.append((g[-1], sign, draw(st.sampled_from([0.0, 1.0, 2.0]))))
            continue
        d = np.round(np.resize(draw(direction), len(g)), 3)
        if not np.any(d):
            d[0] = 1.0
        u = d / np.linalg.norm(d)
        if kind == "interior":
            y[g] = draw(st.floats(0.0, 0.99)) * w * u
        else:
            y[g] = w * u
            x[g] = draw(st.sampled_from([0.0, draw(st.floats(0.1, 3.0))])) * u
    on = TOL.member * max(1.0, float(np.linalg.norm(x)))
    for i, sign, c in edges:
        x[i] = sign * c * on
    return reg, y, x


@SETTINGS
@given(face_cases())
def test_group_face_and_cones_match_product_reference(case):
    reg, y, x = case
    rng = np.random.default_rng(0)
    probes = list(rng.standard_normal((6, reg.dim))) + [x, -x, y]
    try:
        boundary, interior = ref_face(reg, y, TOL)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            rz.conj_subdiff_face(reg, y, TOL)
        assert str(info.value) == str(exc)
        return
    face = rz.conj_subdiff_face(reg, y, TOL)
    assert face.describe() == {"kind": "group_lasso", "boundary_groups": boundary,
                               "interior_groups": interior}
    for z in probes:
        assert_close(face.project(z), ref_face_project(reg, y, boundary, z), z)
    assert face.contains(x, 10 * TOL.member)
    assert_same_cone(face.tangent_at(x, TOL),
                     ref_tangent_at(reg, y, boundary, x, TOL), probes)
    if not rz.subdiff_contains(reg, x, y, TOL):   # y_J just past the bound
        with pytest.raises(ValueError, match="not in dg"):
            rz.tangent_subdiff(reg, x, y, TOL)
        return
    assert_same_cone(rz.tangent_subdiff(reg, x, y, TOL),
                     ref_tangent_subdiff(reg, x, y, TOL), probes)


def test_group_cone_reference_cases_cover_every_variant():
    """The drawn cases reach every cone variant and the dual-bound error."""
    seen = set()

    def variant(cone):
        if isinstance(cone, SubspacePlusRays):
            return "span plus rays" if cone.rays else "span"
        return type(cone).__name__

    @settings(SETTINGS, max_examples=100)
    @given(face_cases())
    def collect(case):
        reg, y, x = case
        try:
            face = rz.conj_subdiff_face(reg, y, TOL)
        except ValueError:
            seen.add("error")
            return
        seen.add(("tangent", variant(face.tangent_at(x, TOL))))
        if rz.subdiff_contains(reg, x, y, TOL):
            seen.add(("subdiff", variant(rz.tangent_subdiff(reg, x, y, TOL))))

    collect()
    assert seen == {"error", ("tangent", "span"), ("tangent", "span plus rays"),
                    ("subdiff", "span"), ("subdiff", "PolyhedralCone")}


# ---------------------------------------------------------------------------
# the K != I face system and relative-interior test against the group loops


def ref_polyhedral_system(face):
    """(A, E) one group at a time: -u_J, and the e_i of interior groups or
    an SVD complement of u_J (the former Subspace.complement)."""
    n = face.dim
    a_rows, e_rows = [], []
    for gi, g in enumerate(face.reg.group_slices):
        if gi in face.interior:
            for i in g:
                row = np.zeros(n)
                row[i] = 1.0
                e_rows.append(row)
            continue
        u = ref_unit(face.reg, face.y_bar, gi)
        row = np.zeros(n)
        row[g] = -u
        a_rows.append(row)
        comp = np.linalg.svd(u.reshape(-1, 1), full_matrices=True)[0][:, 1:]
        for col in comp.T:
            row = np.zeros(n)
            row[g] = col
            e_rows.append(row)
    return np.asarray(a_rows).reshape(-1, n), np.asarray(e_rows).reshape(-1, n)


def group_blocks(reg, rows):
    """The rows supported on each group, restricted to it."""
    return [rows[np.any(rows[:, g] != 0.0, axis=1)][:, g] for g in reg.group_slices]


@st.composite
def boundary_faces(draw):
    """A face with at least one boundary group."""
    reg, y, x = draw(face_cases())
    try:
        face = rz.conj_subdiff_face(reg, y, TOL)
    except ValueError:
        face = None
    if face is None or not face.boundary:
        y = np.zeros(reg.dim)                      # every group on the boundary
        for g in reg.group_slices:
            if len(g):
                y[g[0]] = reg.weight
        face = rz.conj_subdiff_face(reg, y, TOL)
    return face


@SETTINGS
@given(boundary_faces())
def test_face_system_matches_group_loops(face):
    a, c, e, rhs = face.polyhedral_system()
    ref_a, ref_e = ref_polyhedral_system(face)
    assert not c.any() and not rhs.any()
    # per group, the same A row and the same span of orthonormal E rows
    assert a.shape == ref_a.shape and e.shape == ref_e.shape
    for new, ref in zip(group_blocks(face.reg, a), group_blocks(face.reg, ref_a)):
        assert new.shape == ref.shape
        assert_close(new, ref)
    assert np.abs(e @ e.T - np.eye(e.shape[0])).max(initial=0.0) <= 1e-12
    for new, ref in zip(group_blocks(face.reg, e), group_blocks(face.reg, ref_e)):
        assert new.shape == ref.shape
        assert np.abs(new.T @ new - ref.T @ ref).max(initial=0.0) <= 1e-12
