"""Each membership question is decided by one rule.

Subdifferential membership is the prox-graph residual for every kind, and
it agrees with the per-kind rules it replaced (tests/membership_reference.py)
on the gallery's solution pairs.  Polyhedral rows are tested by the one
per-row rule of cones.Polyhedron, so rescaling the rows of {A y <= c}
together with c changes no answer of the regularizer's value, its
subdifferential membership or its conjugate faces' membership.
"""

import numpy as np
import pytest

from calmcert import regularizers as rz
from calmcert.certificates import prepare_multiplier
from calmcert.gallery import curated_cases
from calmcert.linalg import Tolerances
from calmcert.model import load_instance, polyhedral_indicator
from calmcert.solver import solve

import membership_reference

TOL = Tolerances()
SCALES = (1e-4, 1.0, 1e4)


# ---------------------------------------------------------------------------
# subdifferential membership against the per-kind rules


@pytest.mark.parametrize("case", curated_cases(), ids=lambda c: c["name"])
def test_one_rule_agrees_with_the_per_kind_rules_on_gallery_pairs(case):
    inst = load_instance(case["instance"])
    x, y, _ = prepare_multiplier(inst, solve(inst))
    kx = inst.k.apply(x)
    reg = inst.reg
    assert rz.subdiff_contains(reg, kx, y, TOL)
    off = np.linspace(2.0, 3.0, y.size)           # a multiplier off dg(K x)
    for v, member in ((y, True), (y + off, False), (y - off, False)):
        if reg.kind == "polyhedral_indicator" and member is False:
            member = None                           # a normal cone may hold it
        got = rz.subdiff_contains(reg, kx, v, TOL)
        assert got == membership_reference.subdiff_contains(reg, kx, v, TOL)
        assert member is None or got == member


# ---------------------------------------------------------------------------
# polyhedral row scale


def _box():
    return np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)


def _box_points():
    """(x, v, face multiplier, in the set, v in dg(x), x on the face)."""
    right = np.array([1.0, 0.0])
    return [
        (np.array([1.0 + 5e-8, 0.5]), right, right, True, True, True),
        (np.array([1.0, 0.5]), right, right, True, True, True),
        (np.array([0.5, 0.5]), right, right, True, False, False),
        (np.array([1.0 + 1e-3, 0.5]), right, right, False, False, False),
        (np.array([1.0, 1.0 + 5e-8]), np.array([1.0, 1.0]), right,
         True, True, True),
        (np.array([1.0, 0.5]), np.array([0.0, 1.0]), right, True, False, True),
    ]


def _random_polyhedron():
    """Six seeded Gaussian rows in R^3 about an interior origin, and points
    on row j's boundary (first hit along a ray from 0), 5e-8 outside it
    (inside at the slack) and 1e-4 outside it (outside)."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 3))
    c = 1.0 + rng.random(6)
    points = []
    for _ in range(4):
        d = rng.standard_normal(3)
        speed = a @ d
        hits = np.where(speed > 0, c / np.where(speed > 0, speed, 1.0), np.inf)
        j = int(np.argmin(hits))
        p = hits[j] * d
        unit = a[j] / np.linalg.norm(a[j])
        points += [(p, a[j], a[j], True, True, True),
                   (p + 5e-8 * unit, a[j], a[j], True, True, True),
                   (p + 1e-4 * unit, a[j], a[j], False, False, False),
                   (p, -a[j], a[j], True, False, True),
                   (0.5 * p, a[j], a[j], True, False, False)]
    return a, c, points


@pytest.mark.parametrize("make", [lambda: (*_box(), _box_points()),
                                  _random_polyhedron], ids=["box", "random"])
def test_polyhedral_answers_do_not_depend_on_row_scale(make):
    a, c, points = make()
    for x, v, y_face, inside, member, on_face in points:
        for s in SCALES:
            reg = polyhedral_indicator(s * a, s * c)
            face = rz.conj_subdiff_face(reg, y_face, TOL)
            assert (rz.value(reg, x) == 0.0) == inside, (s, x)
            assert rz.subdiff_contains(reg, x, v, TOL) == member, (s, x, v)
            assert face.contains(x, TOL.member) == on_face, (s, x)
