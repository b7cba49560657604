"""Loop-free group-Lasso kernels against the per-group reference loops.

The reference functions below are the per-group loops the kernels replaced;
they live here only, as the oracle.  Partitions are drawn unsorted and
non-contiguous, as singletons, as one big group, and with empty groups.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calmcert import regularizers as rz
from calmcert.linalg import Tolerances
from calmcert.model import group_lasso
from calmcert.solver import _dual_feasibility

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


def ref_prox_conjugate(reg, y):
    out = y.copy()
    for g in reg.group_slices:
        nrm = float(np.linalg.norm(y[g]))
        if nrm > reg.weight:
            out[g] = reg.weight / nrm * y[g]
    return out


def ref_dual_feasibility(reg, y):
    return max(0.0, max([float(np.linalg.norm(y[g])) for g in reg.group_slices],
                        default=0.0) - reg.weight)


def ref_subdiff_contains(reg, x, v, tol):
    t = tol.member
    w = reg.weight
    for g in reg.group_slices:
        nx = float(np.linalg.norm(x[g]))
        if nx > t:
            if float(np.linalg.norm(v[g] - w * x[g] / nx)) > t * max(1.0, w):
                return False
        elif float(np.linalg.norm(v[g])) > w + t * max(1.0, w):
            return False
    return True


def ref_project_multiplier(reg, z, y, tol):
    out = y.copy()
    w = reg.weight
    for g in reg.group_slices:
        nz = float(np.linalg.norm(z[g]))
        if nz > tol.member:
            out[g] = w * z[g] / nz
        else:
            ny = float(np.linalg.norm(y[g]))
            if ny > w:
                out[g] = w / ny * y[g]
    return out


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
    membership tolerance, y_J exactly at the prox or dual-ball threshold,
    and v_J exactly on the membership bound.
    """
    groups, dim = draw(partitions())
    reg = group_lasso(groups, dim, weight=draw(st.floats(0.05, 5.0)))
    t = draw(st.floats(0.01, 10.0))
    vec = st.lists(entries, min_size=dim, max_size=dim).map(np.array)
    x, y, d = draw(vec), draw(vec), draw(vec)
    w = reg.weight
    v = np.zeros(dim)
    for g in reg.group_slices:
        if not len(g):
            continue
        kind = draw(st.sampled_from(["free", "zero", "edge"]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind != "free":
            x[g] = 0.0
        if kind == "edge":
            x[g[0]] = sign * TOL.member
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
        assert_close(rz.prox_conjugate(reg, t, point),
                     ref_prox_conjugate(reg, point), point)
        assert_close(rz.value(reg, point), ref_value(reg, point), point)
        assert_close(_dual_feasibility(reg, point),
                     ref_dual_feasibility(reg, point), point, reg.weight)


@SETTINGS
@given(cases())
def test_membership_and_multiplier_match_reference(case):
    reg, _, x, v, y = case
    assert rz.subdiff_contains(reg, x, v, TOL) == ref_subdiff_contains(reg, x, v, TOL)
    assert rz.subdiff_contains(reg, x, y, TOL) == ref_subdiff_contains(reg, x, y, TOL)
    for mult in (v, 3.0 * y):
        assert_close(rz.project_multiplier(reg, x, mult, TOL),
                     ref_project_multiplier(reg, x, mult, TOL), mult, reg.weight)


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
            assert_close(rz.prox_conjugate(r, 1.0, y), ref_prox_conjugate(reg, y), y)
            assert_close(_dual_feasibility(r, y), ref_dual_feasibility(reg, y), y)
            v = rz.project_multiplier(r, x, y, TOL)
            assert_close(v, ref_project_multiplier(reg, x, y, TOL), y)
            assert rz.subdiff_contains(r, x, v, TOL)
            assert rz.subdiff_contains(r, x, y, TOL) == \
                ref_subdiff_contains(reg, x, y, TOL)
