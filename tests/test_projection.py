"""The polyhedral projection (one NNLS) against the active-set enumeration it
replaced, and on boxes beyond the enumeration's 16-row limit."""

import json

import numpy as np
import pytest
import scipy.optimize

from calmcert import cones
from calmcert import regularizers as rz
from calmcert.cli import run
from calmcert.linalg import Tolerances
from calmcert.model import polyhedral_indicator

from projection_reference import project_polyhedron as enumerated


def _draw(rng, cone, k):
    """A nonempty polyhedron (c = 0, rhs = 0 for a cone) with k equalities.

    It holds the point y_in (the origin for a cone).  Every other draw makes
    row 0 a multiple of equality 0, a row that the equalities hold tight.
    """
    d = k + int(rng.integers(1, 4))
    m = int(rng.integers(1, 9))
    a = rng.standard_normal((m, d))
    e = rng.standard_normal((k, d))
    y_in = np.zeros(d) if cone else rng.standard_normal(d)
    tight = k > 0 and rng.uniform() < 0.5
    if tight:
        a[0] = rng.uniform(0.5, 2.0) * e[0]
    gap = 0.0 if cone else rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.7)
    c = a @ y_in + gap
    if tight:
        c[0] = a[0] @ y_in
    return a, c, e, e @ y_in


@pytest.mark.parametrize("cone", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projection_matches_enumeration(cone, k):
    rng = np.random.default_rng([k, int(cone), 8])
    for _ in range(60):
        a, c, e, rhs = _draw(rng, cone, k)
        p = 3.0 * rng.standard_normal(a.shape[1])
        got = cones.Polyhedron(a, c, e, rhs).project(p)
        want = enumerated(p, a, c, e, rhs)
        assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(p))


def test_projection_keeps_faces_tight_at_roundoff(monkeypatch):
    # a cone row that the equality pins (the lab's A = e1, E = 3 e1), and a
    # box face whose support row repeats an inequality row; the face
    # factors Ker E once for its three projections, and the cone needs no
    # Ker E, because its point projects onto {E y = 0} inside the cone
    calls = []
    null_space = cones.null_space

    def counted(*args, **kwargs):
        calls.append(1)
        return null_space(*args, **kwargs)

    monkeypatch.setattr(cones, "null_space", counted)
    a, e = np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]])
    p = np.array([2.0, 1.0])
    assert np.allclose(cones.Polyhedron(a, [0.0], e, [0.0]).project(p), [0.0, 1.0])
    box = polyhedral_indicator(np.vstack([np.eye(2), -np.eye(2)]),
                               np.array([0.3, 0.7, 1.1, 0.9]))
    face = rz.conj_subdiff_face(box, np.array([1.0, 0.0]), Tolerances())
    for point in ([5.0, 5.0], [-5.0, 0.2], [0.3, -0.9]):
        want = enumerated(point, face.A, face.c, face.E, face.rhs)
        assert np.allclose(face.project(point), want, atol=1e-12)
    assert len(calls) == 1


def test_projection_solves_one_nnls(monkeypatch):
    calls = []
    nnls = scipy.optimize.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    d = 16
    a = np.vstack([np.eye(d), -np.eye(d)])
    p = np.linspace(-3.0, 3.0, d)
    got = cones.Polyhedron(a, np.ones(2 * d)).project(p)
    assert np.allclose(got, np.clip(p, -1.0, 1.0))
    assert len(calls) == 1


def test_point_inside_is_returned_without_an_nnls(monkeypatch):
    calls = []
    nnls = scipy.optimize.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    d = 6
    a = np.vstack([np.eye(d), -np.eye(d)])
    p = np.linspace(-0.9, 0.9, d)
    assert np.array_equal(cones.Polyhedron(a, np.ones(2 * d)).project(p), p)
    assert not calls


EMPTY = [([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0], None, None),
         ([[1.0, 0.0]], [0.0], [[1.0, 0.0]], [1.0]),
         ([[0.0, 0.0]], [-1.0], None, None)]


@pytest.mark.parametrize("a, c, e, rhs", EMPTY)
def test_projection_of_empty_set_raises(a, c, e, rhs):
    e = None if e is None else np.asarray(e)
    with pytest.raises(RuntimeError):
        cones.Polyhedron(a, c, e, rhs).project(np.zeros(2))


@pytest.mark.parametrize("a, c, e, rhs", EMPTY)
def test_an_empty_set_reads_empty(a, c, e, rhs):
    e = None if e is None else np.asarray(e)
    assert cones.Polyhedron(a, c, e, rhs).is_empty()


@pytest.mark.parametrize("cone", [False, True])
def test_a_drawn_set_without_equalities_is_not_empty(cone):
    # a cone holds 0 on its boundary, another draw a point on its tight rows
    rng = np.random.default_rng([0, int(cone), 8])
    for _ in range(60):
        assert not cones.Polyhedron(*_draw(rng, cone, 0)).is_empty()


def test_emptiness_agrees_with_a_zero_cost_lp():
    rng = np.random.default_rng(11)
    empty = []
    for _ in range(100):
        m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        a, c = rng.standard_normal((m, d)), rng.standard_normal(m)
        empty.append(cones.linear_program(np.zeros(d), a, c).status != 0)
        assert cones.Polyhedron(a, c).is_empty() == empty[-1]
    assert 0 < sum(empty) < len(empty)


def test_emptiness_keeps_the_active_set_that_projections_reuse(monkeypatch):
    box = polyhedral_indicator(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    box.project(np.array([3.0, 0.5]))
    last = box._last
    assert last and not box.is_empty() and box._last == last
    # a set with no rows is all of its space: no NNLS is solved for it
    monkeypatch.setattr(scipy.optimize, "nnls", None)
    assert not polyhedral_indicator(np.zeros((0, 3)), np.zeros(0)).is_empty()


def test_box_with_32_rows_certifies(tmp_path):
    # min 1/2 ||Phi x - Phi t||^2 over |x_i| <= c_i with Phi diagonal and
    # invertible separates into x_i = clip(t_i, -c_i, c_i), an isolated point
    d = 16
    rng = np.random.default_rng(3)
    c = rng.uniform(0.5, 1.5, d)
    s = rng.uniform(0.5, 1.5, d)
    t = c * rng.uniform(0.0, 0.7, d)
    t[::3] = 2.0 * c[::3]
    t *= np.where(np.arange(d) % 2, 1.0, -1.0)
    box = np.vstack([np.eye(d), -np.eye(d)])
    doc = {"phi": {"kind": "dense", "rows": d, "cols": d,
                   "entries": np.diag(s).ravel().tolist()},
           "b": (s * t).tolist(), "mu": 1.0, "k": {"kind": "identity", "dim": d},
           "reg": {"kind": "polyhedral_indicator",
                   "A": {"kind": "dense", "rows": 2 * d, "cols": d,
                         "entries": box.ravel().tolist()},
                   "c": np.concatenate([c, c]).tolist()}}
    path = tmp_path / "box32.json"
    path.write_text(json.dumps(doc))
    sol, report = tmp_path / "sol.json", tmp_path / "pd.json"
    assert run(["solve", str(path), "--out", str(sol)]) == 0
    x = np.array(json.loads(sol.read_text())["payload"]["x_bar"])
    assert np.allclose(x, np.clip(t, -c, c), atol=1e-8)
    assert run(["certify-pd", str(path), "--out", str(report)]) == 0
    payload = json.loads(report.read_text())["payload"]
    assert payload["conclusion_solution_map"]["status"] == "isolated_calm"
    assert payload["conclusion_primal_dual"]["status"] == "isolated_calm"
