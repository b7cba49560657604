"""Sets that factor once: the stacked PSD probe against the per-start one,
polyhedral projections that reuse their last active set against the
active-set enumeration, and the calls each saves."""

import json

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from calmcert import cones
from calmcert import regularizers as rz
from calmcert.certificates import prepare_multiplier
from calmcert.cli import run
from calmcert.cones import Polyhedron, PreimageCone, PsdCone
from calmcert.empirics import zero_product_check
from calmcert.gallery import curated_cases, instance_for
from calmcert.linalg import Subspace, Tolerances
from calmcert.solver import solve

import psd_probe_reference
from projection_reference import project_polyhedron as enumerated
from two_step_reference import kernel_op

TOL = Tolerances()


# ---------------------------------------------------------------------------
# the PSD probe on a stack


def _degenerate_tangent():
    """Phi and the PSD tangent cone of nuclear_degenerate at its pair."""
    inst = instance_for("nuclear_degenerate")
    pair = solve(inst)
    x, y, _ = prepare_multiplier(inst, pair)
    cone = rz.tangent_conj_subdiff(inst.reg, y, inst.k.apply(x), TOL)
    assert isinstance(cone, PsdCone)
    return inst.phi.matrix, cone


def _both_probes(mat, cone, k_mat, inner, seed):
    norm = float(np.linalg.norm(mat, 2))
    args = (mat, norm, cone, k_mat, inner, TOL, seed)
    return cones._psd_probe(*args), psd_probe_reference._psd_probe(*args)


def _invertible(rng, n):
    q = rng.standard_normal((n, n))
    return q + n * np.eye(n)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_probe_matches_per_start_on_nuclear_degenerate(seed):
    phi, cone = _degenerate_tangent()
    got, want = _both_probes(phi, cone, None, cone, seed)
    assert got.outcome == want.outcome == "unknown"
    q = _invertible(np.random.default_rng(seed), phi.shape[1])
    pre = PreimageCone(q, cone)                   # {w : Q w in C}, K = Q dense
    got, want = _both_probes(phi @ np.linalg.inv(q), pre, q, cone, seed)
    assert got.outcome == want.outcome == "unknown"


@pytest.mark.parametrize("seed", range(4))
def test_stacked_probe_finds_the_per_start_witness(seed):
    cone = PsdCone(np.eye(2), np.eye(2), p=2,
                   kernel_basis=np.array([[0.0], [1.0]]), m=2, n=2)
    m0 = kernel_op(Subspace(4, np.array([0.0, 0.0, 0.0, 1.0])))   # Ker = E22
    got, want = _both_probes(m0, cone, None, cone, seed)
    assert got.is_nontrivial and want.is_nontrivial
    assert np.allclose(got.witness, want.witness, atol=1e-9)
    q = _invertible(np.random.default_rng(seed), 4)
    got, want = _both_probes(m0 @ q, PreimageCone(q, cone), q, cone, seed)
    assert got.is_nontrivial and want.is_nontrivial
    assert np.allclose(got.witness, want.witness, atol=1e-9)
    asym = kernel_op(Subspace(4, np.array([0.0, 1.0, 0.0, 0.0])))  # E12
    got, want = _both_probes(asym, cone, None, cone, seed)
    assert got.outcome == want.outcome == "unknown"


@pytest.mark.parametrize("m, n, p, q", [(2, 2, 2, 1), (2, 3, 2, 2),
                                        (3, 4, 3, 1), (3, 3, 2, 1),
                                        (4, 5, 3, 2)])
def test_stacked_psd_projection_matches_single_points(m, n, p, q):
    rng = np.random.default_rng([m, n, p, q])
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    kernel, _ = np.linalg.qr(rng.standard_normal((p, q)))
    cone = PsdCone(u, v, p, kernel, m, n)
    w = rng.standard_normal((7, m * n)) * np.array([[1e-3], [1], [1], [10],
                                                    [1e3], [1], [0]])
    stacked = cone.project(w)
    assert stacked.shape == w.shape
    for row, got in zip(w, stacked):
        want = cone.project(row)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(row))
        assert cone.member(got, 1e-9)


def test_probe_makes_one_stacked_projection_per_iteration(tmp_path, monkeypatch):
    # the parent ran 32 starts x ~28 iterations, one 2 x 2 eigh each
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    path = _write_case(tmp_path, "nuclear_degenerate")
    assert run(["certify-pd", str(path), "--out", str(tmp_path / "r.json")]) == 2
    assert 0 < len(calls) <= 500


# ---------------------------------------------------------------------------
# polyhedral projections that reuse their last active set


@st.composite
def polyhedra(draw):
    """A nonempty {A y <= c, E y = rhs} holding y_in, with duplicate rows,
    a face's own support row at equality, or an E block, and a sequence of
    points that moves between active sets and back."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 2))
    d = k + draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    a = rng.standard_normal((m, d))
    y_in = rng.standard_normal(d)
    gap = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.7)
    e = rng.standard_normal((k, d))
    if m > 1 and draw(st.booleans()):                 # duplicate rows
        a[1] = a[0] * draw(st.sampled_from([1.0, 2.5]))
        gap[1] = gap[0] * (a[1, 0] / a[0, 0])
    c = a @ y_in + gap
    if draw(st.booleans()):                           # a face: its support row
        e = np.vstack([e, draw(st.sampled_from([1.0, 3.0])) * a[0]])
        c[0] = a[0] @ y_in
    rhs = e @ y_in
    points, last = [], y_in
    for move in draw(st.lists(st.sampled_from(["near", "far", "back", "inside"]),
                              min_size=2, max_size=8)):
        if move == "near":
            p = last + 1e-3 * rng.standard_normal(d)
        elif move == "far":
            p = y_in + 5.0 * rng.standard_normal(d)
        elif move == "back":
            p = points[0] if points else y_in
        else:
            p = y_in
        points.append(p)
        last = p
    return a, c, e, rhs, points


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polyhedra())
def test_reusing_projection_matches_enumeration(case):
    a, c, e, rhs, points = case
    poly = Polyhedron(a, c, e, rhs)
    for p in points:
        got = poly.project(p)
        want = enumerated(p, a, c, e, rhs)
        scale = max(1.0, np.linalg.norm(p))
        assert np.linalg.norm(got - want) <= 1e-9 * scale
        fresh = Polyhedron(a, c, e, rhs).project(p)
        assert np.linalg.norm(got - fresh) <= 1e-12 * scale


def test_stale_active_set_is_rejected(monkeypatch):
    calls = []
    nnls = scipy.optimize.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    # row 0 active, then again; row 1 and then row 2 alone, where the
    # stale set has a negative multiplier; rows 1 and 2, where the stale
    # {2} gives an infeasible point; then those two again
    for point, want, nnls_calls in (([2.0, 0.5], [1.0, 0.5], 1),
                                    ([3.0, -0.2], [1.0, -0.2], 1),
                                    ([0.3, 4.0], [0.3, 1.0], 2),
                                    ([-3.0, 0.0], [-1.0, 0.0], 3),
                                    ([-3.0, 5.0], [-1.0, 1.0], 4),
                                    ([-2.0, 2.0], [-1.0, 1.0], 4)):
        assert np.allclose(box.project(np.array(point)), want, atol=1e-15)
        assert len(calls) == nnls_calls


def _write_case(tmp_path, name):
    case = next(c for c in curated_cases() if c["name"] == name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(case["instance"]))
    return path


@pytest.mark.parametrize("verb, multipliers", [("certify-pd", 1), ("probe", 1),
                                               ("lab", 2)])
def test_one_support_lp_per_multiplier(tmp_path, monkeypatch, verb, multipliers):
    # the lab's prox-centred multiplier (x_bar + v_bar - prox) is another y
    built = []
    init = rz.PolyhedralFace.__init__

    def counted(self, reg, y_bar, tol):
        built.append(np.asarray(y_bar, dtype=float).tobytes())
        init(self, reg, y_bar, tol)

    monkeypatch.setattr(rz.PolyhedralFace, "__init__", counted)
    path = _write_case(tmp_path, "polyhedral_box")
    assert run([verb, str(path), "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == len(set(built)) == multipliers


def test_zero_product_check_reuses_the_prox_active_set(monkeypatch):
    inst = instance_for("polyhedral_box")
    pair = solve(inst)
    x, y, _ = prepare_multiplier(inst, pair)
    calls = []
    nnls = scipy.optimize.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return nnls(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "nnls", counted)
    out = zero_product_check(inst.reg, inst.k.apply(x), y, n_samples=200)
    assert out["available"] and out["n"] == 200
    assert len(calls) <= 10
