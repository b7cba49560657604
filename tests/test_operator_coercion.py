"""A plain matrix passed to a decision is coerced once with as_operator.

It gets the verdict and the bytes that LinearOp.dense of it gets, and a
matrix equal to the identity reads as K = I, as a dense identity K in an
instance does.
"""

import numpy as np
import pytest

from calmcert import regularizers as rz
from calmcert.cones import (PolyhedralCone, PreimageCone, SubspacePlusRays,
                            preimage, tangent_with_range_restriction,
                            trivial_intersection)
from calmcert.linalg import DEFAULT_TOL as TOL, LinearOp, Subspace, as_operator


def _cases():
    rng = np.random.default_rng(7)
    orthant = PolyhedralCone(-np.eye(4), None, ambient=4)
    rays = SubspacePlusRays(Subspace(4, rng.standard_normal((4, 1))),
                            [np.eye(4)[0], -np.eye(4)[2]])
    pre = PreimageCone(rng.standard_normal((3, 4)),
                       SubspacePlusRays(Subspace.zero(3), [np.ones(3)]))
    wide, square = rng.standard_normal((2, 4)), rng.standard_normal((4, 4))
    return [(m, c) for m in (wide, square) for c in (orthant, rays, pre)]


@pytest.mark.parametrize("m, cone", _cases())
def test_an_array_decides_as_its_dense_operator(m, cone):
    got = trivial_intersection(m, cone, TOL)
    want = trivial_intersection(LinearOp.dense(m), cone, TOL)
    assert got.outcome == want.outcome
    assert got.outcome != "unknown"
    if want.witness is None:
        assert got.witness is None
        assert got.certificate.mu.tobytes() == want.certificate.mu.tobytes()
    else:
        assert got.witness.tobytes() == want.witness.tobytes()


def test_outcomes_of_the_coercion_cases_differ():
    # the cases above see both verdicts, so the byte comparisons mean something
    assert {trivial_intersection(m, c, TOL).outcome for m, c in _cases()} \
        == {"trivial", "nontrivial"}


def test_an_array_pulls_back_as_its_dense_operator():
    rng = np.random.default_rng(8)
    k = rng.standard_normal((3, 4))
    poly = PolyhedralCone(rng.standard_normal((5, 3)), rng.standard_normal((1, 3)),
                          ambient=3)
    got, want = preimage(k, poly, TOL), preimage(LinearOp.dense(k), poly, TOL)
    assert got.A.tobytes() == want.A.tobytes()
    assert got.E.tobytes() == want.E.tobytes()
    rays = SubspacePlusRays(Subspace.zero(3), [np.ones(3)])
    assert preimage(k, rays, TOL).K.tobytes() == \
        preimage(LinearOp.dense(k), rays, TOL).K.tobytes()


def test_as_operator_keeps_an_operator():
    op = LinearOp.grad1d(4)
    assert as_operator(op) is op
    assert as_operator(op.matrix).kind == "dense"


def test_a_plain_identity_reads_as_k_equals_i(monkeypatch):
    # as a dense identity K in an instance already does
    assert LinearOp.dense(np.eye(3)).is_identity
    cone = SubspacePlusRays(Subspace.zero(3), [np.eye(3)[0]])
    v = trivial_intersection(np.eye(3), cone, TOL)
    assert v.is_trivial and v.certificate is None
    assert preimage(np.eye(3), cone, TOL) is cone

    def no_range(*args, **kwargs):
        raise AssertionError("the range of an identity was factored")
    monkeypatch.setattr(LinearOp, "range_space", no_range)
    nuc = rz.Nuclear(2, 2, 1.0)
    face = rz.conj_subdiff_face(nuc, np.diag([1.0, 0.5]).ravel(), TOL)
    assert rz.ri_intersects_range(face, np.eye(4), TOL,
                                  x_bar=np.diag([1.0, 0.0]).ravel()) == "yes"
    box = rz.PolyhedralIndicator(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    face = rz.conj_subdiff_face(box, np.array([1.0, 0.0]), TOL)
    z = np.array([1.0, 0.5])
    got = tangent_with_range_restriction(face, z, np.eye(2), TOL)
    want = face.tangent_at(z, TOL)
    assert (got.A.tobytes(), got.E.tobytes()) == (want.A.tobytes(), want.E.tobytes())


def test_singular_values_are_computed_once(monkeypatch):
    op = LinearOp.dense(np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]))
    s = op.singular_values()
    assert np.array_equal(s, [4.0, 3.0])
    with pytest.raises(ValueError, match="read-only"):
        s[0] = 1.0

    def no_svd(*args, **kwargs):
        raise AssertionError("singular values recomputed")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert op.singular_values() is s
