"""A stack of points (rows) through value, prox and group_norms gives what
each row gives on its own."""

import numpy as np
from hypothesis import given, settings, strategies as st

from calmcert import regularizers as rz
from calmcert.cones import Polyhedron
from calmcert.linalg import row_dots, row_norms
from calmcert.model import group_lasso, nuclear, polyhedral_indicator

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def _rows_agree(reg, y, exact_prox):
    values = rz.value(reg, y)
    assert values.shape == y.shape[:1]
    for row, val in zip(y, values):
        one = rz.value(reg, row)
        assert isinstance(one, float)
        assert val == one or abs(val - one) <= 1e-15 * abs(one)
    for t in (0.5, 2.0):
        stacked = rz.prox(reg, t, y)
        assert stacked.shape == y.shape
        for row, got in zip(y, stacked):
            want = rz.prox(reg, t, row)
            if exact_prox:
                assert np.array_equal(got, want)
            else:
                assert np.linalg.norm(got - want) <= \
                    1e-14 * (1.0 + np.linalg.norm(row))


@st.composite
def group_cases(draw):
    """Unsorted, non-contiguous groups, singletons and empty groups, with
    whole groups zeroed or put at the threshold in some rows."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), replace=False,
                              size=draw(st.integers(0, n - 1))))
    groups = [g.tolist() for g in np.split(perm, cuts)]
    groups += [[] for _ in range(draw(st.integers(0, 2)))]
    groups = [groups[i] for i in rng.permutation(len(groups))]
    weight = draw(st.sampled_from([0.3, 1.0, 7.0]))
    reg = group_lasso(groups, n, weight)
    y = rng.standard_normal((draw(st.integers(0, 6)), n)) * \
        draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for row in y:
        g = groups[rng.integers(len(groups))]
        if g and rng.random() < 0.5:
            row[g] = 0.0
        elif g:
            row[g] *= weight / np.linalg.norm(row[g])   # ||y_J|| = w
    return reg, y


@SETTINGS
@given(group_cases())
def test_stacked_group_lasso_matches_rows(case):
    reg, y = case
    _rows_agree(reg, y, exact_prox=True)
    norms = rz.group_norms(reg, y)
    for row, got in zip(y, norms):
        assert np.array_equal(got, rz.group_norms(reg, row))
    assert np.array_equal(row_norms(y), [np.linalg.norm(r) for r in y])
    if len(y):
        assert np.array_equal(row_dots(y, y[0]), [r @ y[0] for r in y])


@st.composite
def nuclear_cases(draw):
    """m <= n, with rank-deficient and zero matrices in the stack."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        r = rng.integers(0, m + 1)
        mat = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        rows.append(mat.ravel() * draw(st.sampled_from([1e-3, 1.0, 1e3])))
    return (nuclear(m, n, draw(st.sampled_from([0.5, 1.0, 4.0]))),
            np.array(rows).reshape(len(rows), m * n))


@SETTINGS
@given(nuclear_cases())
def test_stacked_nuclear_matches_rows(case):
    _rows_agree(*case, exact_prox=False)


@st.composite
def polyhedral_cases(draw):
    """A box cut by random rows around an interior point, with interior
    points, projections onto it (face and vertex points) and outside ones."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = rng.standard_normal((draw(st.integers(0, 3)), d))
    a = np.vstack([np.eye(d), -np.eye(d), extra])
    center = rng.uniform(-0.5, 0.5, size=d)
    c = a @ center + rng.uniform(0.2, 1.0, size=a.shape[0])
    kinds = draw(st.lists(st.sampled_from(["interior", "face", "vertex",
                                           "outside"]), max_size=5))
    rows = []
    for kind in kinds:
        if kind == "interior":
            rows.append(center)
        elif kind == "outside":
            rows.append(center + 10.0 * rng.standard_normal(d))
        else:
            far = 10.0 if kind == "vertex" else 0.1
            rows.append(Polyhedron(a, c).project(
                center + far * (a.shape[0] + 1) * rng.standard_normal(d)))
    return polyhedral_indicator(a, c), np.array(rows).reshape(len(rows), d)


@settings(SETTINGS, max_examples=60)
@given(polyhedral_cases())
def test_stacked_polyhedral_matches_rows(case):
    reg, y = case
    _rows_agree(reg, y, exact_prox=False)
    strict = reg.strict_value
    assert np.array_equal(strict(y), [strict(row) for row in y])
