import json

import numpy as np
import pytest

from calmcert.cones import (PolyhedralCone, PreimageCone, PsdCone,
                            SubspacePlusRays, make_psd_embedded,
                            preimage, tangent_with_range_restriction,
                            trivial_intersection)
from calmcert.certificates import certify_primal_dual
from calmcert.cli import run
from calmcert.linalg import Subspace, Tolerances
from calmcert.model import LinearOp, load_instance
from calmcert.solver import solve

from two_step_reference import kernel_op

TOL = Tolerances()


def span(*vectors):
    return Subspace(len(vectors[0]), np.stack(vectors, axis=1).astype(float))


# ---------------------------------------------------------------------------
# membership


def test_ray_membership_one_sided():
    cone = SubspacePlusRays(Subspace.zero(2), [np.array([0.6, 0.8])])
    assert cone.member(np.array([0.6, 0.8]), 1e-8)
    assert cone.member(np.array([1.2, 1.6]), 1e-8)
    assert not cone.member(np.array([-0.6, -0.8]), 1e-7)
    assert not cone.member(np.array([0.8, -0.6]), 1e-7)


def test_psd_embedded_membership():
    cone = PsdCone(np.eye(2), np.eye(2), p=2,
                   kernel_basis=np.array([[0.0], [1.0]]), m=2, n=2)
    assert not cone.member(np.array([[0.0, 0.0], [0.0, -1.0]]).ravel(), 1e-7)
    assert cone.member(np.array([[-5.0, 0.0], [0.0, 1.0]]).ravel(), 1e-8)
    assert not cone.member(np.array([[0.0, 1.0], [0.0, 0.0]]).ravel(), 1e-7)


def test_preimage_membership_through_grad():
    inner = SubspacePlusRays(Subspace.full(1))
    cone = PreimageCone(LinearOp.grad1d(2).matrix, inner)
    assert cone.member(np.array([2.0, 1.0]), 1e-8)


def test_polyhedral_membership():
    cone = PolyhedralCone(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert cone.member(np.array([-3.0, 0.0]), 1e-8)
    assert not cone.member(np.array([1.0, 0.0]), 1e-7)
    assert not cone.member(np.array([-1.0, 0.5]), 1e-7)


def _slack_cones(rng):
    """A polyhedral cone with both blocks, one without equalities, and PSD
    cones with a full and an empty kernel basis."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    r, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return [PolyhedralCone(rng.standard_normal((4, 5)), rng.standard_normal((1, 5))),
            PolyhedralCone(rng.standard_normal((6, 5)), None),
            PsdCone(q, r, 2, rng.standard_normal((2, 1)), 3, 4),
            PsdCone(q, r, 2, np.zeros((2, 0)), 3, 4)]


def test_membership_for_an_array_of_slacks_matches_each_slack():
    # the answer flips inside the slack range for many of the points: a
    # point near the cone is the cone's projection plus a small offset
    rng = np.random.default_rng(12)
    slacks = np.geomspace(1e-12, 1.0, 25)
    flips = 0
    for cone in _slack_cones(rng):
        for scale in (0.0, 1e-6, 1e-3, 1.0):
            w = rng.standard_normal(cone.ambient)
            w = cone.project(w) + scale * rng.standard_normal(cone.ambient)
            got = cone.member(w, slacks)
            want = [cone.member(w, s) for s in slacks]
            assert got.shape == slacks.shape
            assert list(got) == want
            flips += len(set(want)) == 2
    assert flips >= 4


# ---------------------------------------------------------------------------
# trivial_intersection examples


def test_full_cone_nontrivial():
    n = span(np.array([1.0, -1.0]) / np.sqrt(2))
    v = trivial_intersection(kernel_op(n), SubspacePlusRays(Subspace.full(2)),
                             TOL)
    assert v.is_nontrivial
    assert abs(abs(v.witness @ (np.array([1.0, -1.0]) / np.sqrt(2))) - 1) < 1e-9


def test_orthogonal_lines_trivial():
    n = span(np.array([1.0, -1.0]) / np.sqrt(2))
    c = SubspacePlusRays(span(np.array([1.0, 1.0]) / np.sqrt(2)))
    assert trivial_intersection(kernel_op(n), c, TOL).is_trivial


def test_orthant_pattern_enumeration_trivial():
    n = span(np.array([1.0, -1.0]) / np.sqrt(2))
    orthant = SubspacePlusRays(Subspace.zero(2),
                               [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert trivial_intersection(kernel_op(n), orthant, TOL).is_trivial


def test_orthant_nontrivial_when_line_enters():
    n = span(np.array([1.0, 1.0]) / np.sqrt(2))
    orthant = SubspacePlusRays(Subspace.zero(2),
                               [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    v = trivial_intersection(kernel_op(n), orthant, TOL)
    assert v.is_nontrivial
    assert np.all(v.witness >= -1e-9)


def test_zero_kernel_always_trivial():
    v = trivial_intersection(np.eye(3), SubspacePlusRays(Subspace.full(3)), TOL)
    assert v.is_trivial


def test_ray_count_has_no_cap(tmp_path):
    # l1 with Phi = [I_k I_k], b = mu 1: x_bar = 0 and every y_i = 1, so the
    # tangent cone is the orthant of 2k rays, and Ker Phi = {(u, -u)} meets
    # it only at 0
    mu = 0.7
    for k in (12, 25):
        phi = np.hstack([np.eye(k), np.eye(k)])
        doc = {"phi": {"kind": "dense", "rows": k, "cols": 2 * k,
                       "entries": phi.ravel().tolist()},
               "b": [mu] * k, "mu": mu, "k": {"kind": "identity", "dim": 2 * k},
               "reg": {"kind": "group_lasso", "dim": 2 * k,
                       "groups": [[i] for i in range(2 * k)], "weight": 1.0}}
        path = tmp_path / f"dup{k}.json"
        path.write_text(json.dumps(doc))
        inst = load_instance(path.read_text())
        report = certify_primal_dual(inst, solve(inst))
        assert report.conclusion_solution_map.status == "isolated_calm"
        assert report.conclusion_primal_dual.status == "isolated_calm"
        assert report.cond_suf.certificate.verify(TOL)
        assert not report.has_unknown
        assert run(["certify", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_witness_soundness_random():
    rng = np.random.default_rng(17)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        n = Subspace(d, rng.standard_normal((d, rng.integers(1, d + 1))))
        nrays = int(rng.integers(0, 5))
        span_dim = int(rng.integers(0, 2))
        cone = SubspacePlusRays(
            Subspace(d, rng.standard_normal((d, span_dim + (not nrays)))),
            [rng.standard_normal(d) for _ in range(nrays)])
        v = trivial_intersection(kernel_op(n), cone, TOL)
        if v.is_nontrivial:
            w = v.witness
            assert abs(np.linalg.norm(w) - 1.0) < 1e-9
            assert n.residual(w) <= 10 * TOL.member
            assert cone.member(w, 10 * TOL.member)


def _sphere_oracle(n_sub, cone, n_points=10000, seed=0):
    """Dense sampling of the unit sphere of N; strong members only."""
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_points, n_sub.dim))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    found = None
    for row in xi:
        w = n_sub.basis @ row
        if cone.residual(w) <= 1e-9:
            found = w
            break
    return found


def test_exactness_vs_sampling_oracle():
    rng = np.random.default_rng(23)
    unknowns = 0
    for trial in range(40):
        d = int(rng.integers(2, 6))
        n_sub = Subspace(d, rng.standard_normal((d, rng.integers(1, 4))))
        span_dim = int(rng.integers(0, 2))
        rays = [rng.standard_normal(d) for _ in range(rng.integers(1, 5))]
        cone = SubspacePlusRays(Subspace(d, rng.standard_normal((d, span_dim))),
                                rays)
        v = trivial_intersection(kernel_op(n_sub), cone, TOL, seed=trial)
        assert not v.is_unknown
        member = _sphere_oracle(n_sub, cone, seed=trial)
        if member is not None:
            assert v.is_nontrivial, \
                f"oracle found {member} but verdict was {v.outcome}"
        if v.is_nontrivial:
            assert cone.residual(v.witness) <= 10 * TOL.member
            assert n_sub.residual(v.witness) <= 10 * TOL.member


def test_monotonicity_under_ray_subsets():
    rng = np.random.default_rng(31)
    for trial in range(30):
        d = int(rng.integers(2, 5))
        n_sub = Subspace(d, rng.standard_normal((d, rng.integers(1, d))))
        rays = [rng.standard_normal(d) for _ in range(4)]
        big = SubspacePlusRays(Subspace.zero(d), rays)
        small = SubspacePlusRays(Subspace.zero(d), rays[:2])
        if trivial_intersection(kernel_op(n_sub), big, TOL).is_trivial:
            assert trivial_intersection(kernel_op(n_sub), small, TOL).is_trivial


def test_monotonicity_under_inequality_supersets():
    # adding inequality rows shrinks the cone: a Trivial verdict persists
    rng = np.random.default_rng(37)
    for trial in range(30):
        d = int(rng.integers(2, 5))
        n_sub = Subspace(d, rng.standard_normal((d, rng.integers(1, d))))
        rows = rng.standard_normal((4, d))
        big = PolyhedralCone(rows[:2], None, ambient=d)
        small = PolyhedralCone(rows, None, ambient=d)
        if trivial_intersection(kernel_op(n_sub), big, TOL).is_trivial:
            assert trivial_intersection(kernel_op(n_sub), small, TOL).is_trivial


# ---------------------------------------------------------------------------
# PSD probe (heuristic, Unknown fallback)


def test_psd_probe_finds_witness():
    cone = PsdCone(np.eye(2), np.eye(2), p=2,
                   kernel_basis=np.array([[0.0], [1.0]]), m=2, n=2)
    n_sub = span(np.array([0.0, 0.0, 0.0, 1.0]))   # vec of E22
    v = trivial_intersection(kernel_op(n_sub), cone, TOL, seed=4)
    assert v.is_nontrivial
    assert cone.member(v.witness, 1e-7)


def test_psd_probe_unknown_on_trivial():
    cone = PsdCone(np.eye(2), np.eye(2), p=2,
                   kernel_basis=np.array([[0.0], [1.0]]), m=2, n=2)
    n_sub = span(np.array([0.0, 1.0, 0.0, 0.0]))   # vec of E12: asymmetric
    v = trivial_intersection(kernel_op(n_sub), cone, TOL, seed=4)
    assert v.is_unknown
    assert "heuristic" in v.reason


def test_psd_nondegenerate_collapses_to_subspace():
    cone = make_psd_embedded(np.eye(2), np.eye(2), p=1,
                             kernel_basis=np.zeros((1, 0)), m=2, n=2)
    assert isinstance(cone, SubspacePlusRays) and not cone.rays
    assert cone.span.dim == 1
    assert cone.member(np.diag([3.0, 0.0]).ravel(), 1e-8)
    assert cone.member(np.diag([-3.0, 0.0]).ravel(), 1e-8)


# ---------------------------------------------------------------------------
# preimages


def test_preimage_of_zero_is_kernel():
    cone = preimage(LinearOp.grad1d(3), SubspacePlusRays(Subspace.zero(2)), TOL)
    ones = np.ones(3) / np.sqrt(3)
    assert cone.member(ones, 1e-9)
    assert cone.member(-2.0 * ones, 1e-9)
    for w in (np.array([1.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.0]),
              np.array([0.0, 1.0, -1.0])):
        assert not cone.member(w, 1e-7)


def test_preimage_identity_is_inner():
    inner = SubspacePlusRays(Subspace.zero(2), [np.array([1.0, 0.0])])
    cone = preimage(LinearOp.identity(2), inner, TOL)
    assert isinstance(cone, SubspacePlusRays)


def test_preimage_degenerate_dense():
    k = np.array([[1.0, 0.0], [0.0, 0.0]])
    cone = preimage(k, SubspacePlusRays(span(np.array([1.0, 0.0]))), TOL)
    for w in (np.array([1.0, 0.0]), np.array([0.0, -1.0]),
              np.array([3.0, 2.0])):
        assert cone.member(w, 1e-9)          # K maps all of R^2 into e1


def test_preimage_polyhedral_pushes_in():
    inner = PolyhedralCone(np.array([[1.0, 0.0]]), None, ambient=2)
    k = np.array([[1.0, 1.0], [0.0, 1.0]])
    cone = preimage(k, inner, TOL)
    assert isinstance(cone, PolyhedralCone)
    assert cone.member(np.array([-1.0, 0.0]), 1e-8)
    assert not cone.member(np.array([1.0, 0.5]), 1e-7)


def test_preimage_rays_triviality_through_k():
    # {w : K w in R+ e1} with K = [[1, 1]]: w1 + w2 >= 0 half-plane
    inner = SubspacePlusRays(Subspace.zero(1), [np.array([1.0])])
    cone = preimage(np.array([[1.0, 1.0]]), inner, TOL)
    n_line = span(np.array([1.0, -1.0]) / np.sqrt(2))
    v = trivial_intersection(kernel_op(n_line), cone, TOL)
    assert v.is_nontrivial      # the whole line maps to 0, inside the ray
    n_pos = span(np.array([1.0, 1.0]) / np.sqrt(2))
    v2 = trivial_intersection(kernel_op(n_pos), cone, TOL)
    assert v2.is_nontrivial     # one side of the line maps into the ray


# ---------------------------------------------------------------------------
# tangent cone of a face under a range restriction


class _StubFace:
    """Polyhedral set {y : A y <= c} posing as a conjugate face."""

    is_polyhedral = True

    def __init__(self, a, c):
        self.A = np.asarray(a, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.dim = self.A.shape[1]

    def contains(self, y, tol):
        if self.A.shape[0] == 0:
            return True
        slack = tol * max(1.0, float(np.linalg.norm(y)))
        return float(np.max(self.A @ y - self.c)) <= slack

    def tangent_at(self, y, tol):
        scale = max(1.0, float(np.linalg.norm(y)))
        act = [i for i in range(self.A.shape[0])
               if self.A[i] @ y >= self.c[i] - 10 * tol.member * scale]
        a = self.A[act] if act else np.zeros((0, self.dim))
        return PolyhedralCone(a, None, ambient=self.dim)

    def polyhedral_system(self):
        return self.A, self.c, np.zeros((0, self.dim)), np.zeros(0)


def test_range_restriction_identity_matches_plain_tangent():
    face = _StubFace(np.eye(2), np.array([1.0, 1.0]))
    z = np.array([1.0, 0.0])
    t1 = tangent_with_range_restriction(face, z, LinearOp.identity(2), TOL)
    t2 = face.tangent_at(z, TOL)
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.standard_normal(2)
        assert t1.member(w, 1e-8) == t2.member(w, 1e-8)


def test_range_restriction_ray_outside_range():
    # face = ray R+ u with u outside Im K; tangent of the intersection at 0
    # is {0}
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    perp = Subspace(2, u.reshape(-1, 1)).complement()
    face_a = np.vstack([perp.basis.T, -perp.basis.T, -u.reshape(1, -1)])
    face = _StubFace(face_a, np.zeros(3))
    k = LinearOp.dense(np.array([[1.0], [0.0]]))   # Im K = x-axis, u outside
    cone = tangent_with_range_restriction(face, np.zeros(2), k, TOL)
    assert not cone.member(u, 1e-7)
    assert not cone.member(np.array([1.0, 0.0]), 1e-7)
    assert cone.member(np.zeros(2), 1e-8)


def test_range_restriction_subspace_face():
    # face contains span{e1, e2} locally; restricted to Im K = span{e1}
    face = _StubFace(np.zeros((0, 2)), np.zeros(0))
    k = LinearOp.dense(np.array([[1.0], [0.0]]))
    cone = tangent_with_range_restriction(face, np.zeros(2), k, TOL)
    assert cone.member(np.array([1.0, 0.0]), 1e-8)
    assert cone.member(np.array([-1.0, 0.0]), 1e-8)
    assert not cone.member(np.array([0.0, 1.0]), 1e-7)


def test_inverse_image_tangent_equivalence_random():
    # membership equivalence between the tangent of {x : A K x <= c} computed
    # directly and the machinery route through the restricted face tangent
    rng = np.random.default_rng(41)
    for trial in range(30):
        dx = int(rng.integers(1, 5))
        dy = int(rng.integers(1, 5))
        k = rng.standard_normal((dy, dx))
        a = rng.standard_normal((int(rng.integers(1, 5)), dy))
        x0 = rng.standard_normal(dx)
        slack = rng.uniform(0.2, 1.0, size=a.shape[0])
        active = rng.random(a.shape[0]) < 0.5
        slack[active] = 0.0
        c = a @ (k @ x0) + slack
        face = _StubFace(a, c)
        restricted = tangent_with_range_restriction(face, k @ x0,
                                                    LinearOp.dense(k), TOL)
        route = preimage(k, restricted, TOL)
        direct_act = a[active] @ k if active.any() else np.zeros((0, dx))
        direct = PolyhedralCone(direct_act, None, ambient=dx)
        for _ in range(40):
            w = rng.standard_normal(dx)
            assert route.member(w, 1e-8) == direct.member(w, 1e-8), \
                f"trial {trial}: disagreement at {w}"
