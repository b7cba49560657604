import hashlib
import inspect
import json
import struct

import numpy as np
import pytest

from calmcert.linalg import Tolerances, null_space, range_space
from calmcert.model import (InstanceError, LinearOp, group_lasso, load_instance,
                            instance_to_json, instance_hash, materialize,
                            polyhedral_indicator)

TOL = Tolerances()


def minimal_doc(**overrides):
    doc = {"phi": {"kind": "dense", "rows": 1, "cols": 1, "entries": [1.0]},
           "b": [3.0], "mu": 1.0,
           "k": {"kind": "identity", "dim": 1},
           "reg": {"kind": "group_lasso", "dim": 1, "groups": [[0]],
                   "weight": 1.0}}
    doc.update(overrides)
    return doc


def test_grad1d_exact_matrix():
    d = materialize(LinearOp.grad1d(3))
    assert np.array_equal(d, np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))


def test_identity_materialization():
    assert np.array_equal(materialize(LinearOp.identity(2)), np.eye(2))


def test_identity_apply_returns_a_fresh_copy():
    x = np.array([1.5, -0.0, 2.0])
    for op in (LinearOp.identity(3), LinearOp.dense(np.eye(3))):
        for apply in (op.apply, op.apply_adjoint):
            out = apply(x)
            assert np.array_equal(out, x) and out.dtype == float
            out[0] = 7.0                          # the caller owns the result
            assert x[0] == 1.5


def test_grad2d_2x2_hand_expansion():
    # vertical differences (x_{i+1,j} - x_{i,j}) then horizontal, row-major,
    # with zero rows in the last image row / column respectively
    expected = np.zeros((8, 4))
    expected[0] = [-1, 0, 1, 0]     # (1,1): x21 - x11
    expected[1] = [0, -1, 0, 1]     # (1,2): x22 - x12
    expected[4] = [-1, 1, 0, 0]     # (1,1): x12 - x11
    expected[6] = [0, 0, -1, 1]     # (2,1): x22 - x21
    assert np.array_equal(materialize(LinearOp.grad2d(2, 2)), expected)


def test_grad1d_rejects_small():
    with pytest.raises(ValueError):
        LinearOp.grad1d(1)


@pytest.mark.parametrize("n", range(2, 11))
def test_grad1d_surjective(n):
    assert range_space(materialize(LinearOp.grad1d(n)), TOL).dim == n - 1


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)])
def test_grad2d_not_surjective(n1, n2):
    d = materialize(LinearOp.grad2d(n1, n2))
    assert range_space(d, TOL).dim < 2 * n1 * n2


@pytest.mark.parametrize("n", range(2, 8))
def test_grad1d_kernel_is_constants(n):
    ns = null_space(materialize(LinearOp.grad1d(n)), TOL)
    assert ns.dim == 1
    ones = np.ones(n) / np.sqrt(n)
    assert abs(abs(ns.basis[:, 0] @ ones) - 1.0) < 1e-10


def test_load_minimal_instance():
    inst = load_instance(json.dumps(minimal_doc()))
    assert inst.dim_x == 1 and inst.dim_y == 1
    assert inst.mu == 1.0


def test_load_rejects_nonpositive_mu():
    with pytest.raises(InstanceError, match="mu must be positive"):
        load_instance(json.dumps(minimal_doc(mu=0.0)))


def test_load_dimension_mismatch_names_reg():
    doc = minimal_doc(k={"kind": "identity", "dim": 2},
                      phi={"kind": "dense", "rows": 1, "cols": 2,
                           "entries": [1.0, 1.0]},
                      reg={"kind": "group_lasso", "dim": 3,
                           "groups": [[0], [1], [2]], "weight": 1.0})
    with pytest.raises(InstanceError) as err:
        load_instance(json.dumps(doc))
    assert "reg" in str(err.value)


def test_load_reports_field_paths():
    doc = minimal_doc()
    del doc["b"]
    with pytest.raises(InstanceError, match="^b"):
        load_instance(json.dumps(doc))
    doc = minimal_doc(phi={"kind": "dense", "rows": 1, "cols": 1,
                           "entries": [1.0, 2.0]})
    with pytest.raises(InstanceError, match="phi.entries"):
        load_instance(json.dumps(doc))


def test_load_rejects_bad_group_partition():
    doc = minimal_doc(reg={"kind": "group_lasso", "dim": 1, "groups": [[0], [0]],
                           "weight": 1.0})
    with pytest.raises(InstanceError, match="partition"):
        load_instance(json.dumps(doc))


def test_load_rejects_empty_polyhedron():
    doc = minimal_doc(reg={"kind": "polyhedral_indicator",
                           "A": {"kind": "dense", "rows": 2, "cols": 1,
                                 "entries": [1.0, -1.0]},
                           "c": [-1.0, -1.0]})
    with pytest.raises(InstanceError, match="empty"):
        load_instance(json.dumps(doc))


def test_entries_accept_decimal_strings():
    doc = minimal_doc(b=["3.0"])
    inst = load_instance(json.dumps(doc))
    assert inst.b[0] == 3.0


def test_round_trip_is_idempotent():
    doc = {"phi": {"kind": "grad1d", "n": 4}, "b": [0.5, -1.0, 2.0],
           "mu": 0.7, "k": {"kind": "grad2d", "n1": 2, "n2": 2},
           "reg": {"kind": "group_lasso", "dim": 8,
                   "groups": [[0, 4], [1, 5], [2, 6], [3, 7]], "weight": 2.0}}
    # phi: grad1d(4) is 3x4 while grad2d(2,2) is 8x4: dims agree on X
    inst = load_instance(json.dumps(doc))
    text = instance_to_json(inst)
    inst2 = load_instance(text)
    assert np.array_equal(materialize(inst.phi), materialize(inst2.phi))
    assert np.array_equal(materialize(inst.k), materialize(inst2.k))
    assert instance_hash(inst) == instance_hash(inst2)
    assert instance_to_json(inst2) == text


def test_v_of_matches_definition():
    inst = load_instance(json.dumps(minimal_doc()))
    x = np.array([2.0])
    assert np.allclose(inst.v_of(x), -(1.0 / inst.mu) *
                       materialize(inst.phi).T @ (materialize(inst.phi) @ x - inst.b))


@pytest.mark.parametrize("entry, message", [
    (10 ** 400, "finite"),              # a JSON integer too large for a double
    (None, "expected a number"),
    ([1.0, 2.0], "expected a number"),
    ("nan", "finite"),
    ("1,5", "expected a number"),
], ids=["huge-integer", "null", "nested", "nan-string", "comma"])
def test_bad_vector_entry_names_the_entry(entry, message):
    text = json.dumps(minimal_doc(b=[1.0, 2.0, entry],
                                  phi={"kind": "dense", "rows": 3, "cols": 1,
                                       "entries": [1.0, 1.0, 1.0]}))
    with pytest.raises(InstanceError, match=r"^b\[2\]: .*" + message):
        load_instance(text)


def test_cached_arrays_are_read_only():
    reg = group_lasso([[1], [0, 2]], 3)
    box = polyhedral_indicator(np.eye(2), np.ones(2))
    op = LinearOp.grad1d(3)
    for arr in (box.A, box.c, reg.group_slices[0], *reg.segments, op._dense):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_operator_constants_computed_once(monkeypatch):
    source = np.array([[3.0, 0.0], [0.0, 4.0]])
    op = LinearOp.dense(source)
    source[0, 0] = 100.0                 # the operator keeps its own copy
    assert op.op_norm() == pytest.approx(4.0)
    assert not op.is_identity
    inst = load_instance(json.dumps(minimal_doc()))
    norms = (inst.phi.op_norm(), inst.k.op_norm())

    def no_norm(*args, **kwargs):
        raise AssertionError("operator norm recomputed")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    assert op.op_norm() == pytest.approx(4.0)
    pert = inst.perturbed(db=np.ones(1))
    assert (pert.phi.op_norm(), pert.k.op_norm()) == norms


def test_gram_is_computed_once_and_shared_by_perturbed_instances():
    source = np.array([[1.0, 2.0], [0.0, 3.0], [4.0, 0.0]])
    op = LinearOp.dense(source)
    gram = op.gram()
    assert np.array_equal(gram, source.T @ source)
    assert op.gram() is gram
    with pytest.raises(ValueError, match="read-only"):
        gram[0, 0] = 1.0
    inst = load_instance(json.dumps(minimal_doc()))
    pert = inst.perturbed(db=np.ones(1), dmu=0.5)
    assert pert.phi.gram() is inst.phi.gram()


def _norm_cases():
    rng = np.random.default_rng(5)
    low = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 20))
    dense = {"tall": rng.standard_normal((40, 7)),
             "wide": rng.standard_normal((7, 40)),
             "rank_deficient": low, "rank_deficient_t": low.T,
             "zero": np.zeros((4, 6)), "empty": np.zeros((0, 3))}
    ops = {name: LinearOp.dense(m) for name, m in dense.items()}
    ops.update(identity=LinearOp.identity(5), grad1d=LinearOp.grad1d(9),
               grad2d=LinearOp.grad2d(4, 6))
    return ops


NORM_CASES = _norm_cases()


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_op_norm_matches_the_spectral_norm(name):
    op = NORM_CASES[name]
    m = materialize(op)
    want = float(np.linalg.norm(m, 2)) if m.size else 0.0
    assert abs(op.op_norm() - want) <= 1e-12 * want


@pytest.mark.parametrize("op", [LinearOp.identity(7), LinearOp.dense(np.eye(7))],
                         ids=["identity", "dense_identity"])
def test_identity_op_norm_is_one_without_an_svd(monkeypatch, op):
    calls = []
    # np.linalg.norm calls the svd of its own module
    for namespace in (vars(np.linalg), inspect.unwrap(np.linalg.norm).__globals__):
        original = namespace["svd"]
        monkeypatch.setitem(namespace, "svd", lambda *a, _f=original, **k:
                            calls.append(1) or _f(*a, **k))
    assert op.is_identity
    assert op.op_norm() == 1.0
    assert calls == []


# ---------------------------------------------------------------------------
# canonical text and instance hash


PINNED_DOC = {"phi": {"kind": "dense", "rows": 2, "cols": 2,
                      "entries": [0.1, -0.0, 1e-300, 3.0]},
              "b": [1.5, -2.25], "mu": 0.5,
              "k": {"kind": "dense", "rows": 3, "cols": 2,
                    "entries": [1.0, 0.0, 0.0, 1.0, 1.0, -1.0]},
              "reg": {"kind": "polyhedral_indicator",
                      "A": {"kind": "dense", "rows": 2, "cols": 3,
                            "entries": [1.0, 0.0, 0.0, 0.0, -1.0, 2.5e-7]},
                      "c": [1.0, 0.3333333333333333]},
              "tol": {"rank": 1e-10}}


def with_phi(doc, entries):
    out = json.loads(json.dumps(doc))
    out["phi"]["entries"] = entries
    return load_instance(out)


def test_instance_to_json_text_is_pinned():
    assert instance_to_json(load_instance(PINNED_DOC)) == (
        '{"b": [1.5, -2.25], "k": {"cols": 2, "entries": [1.0, 0.0, 0.0, 1.0, '
        '1.0, -1.0], "kind": "dense", "rows": 3}, "mu": 0.5, "phi": {"cols": '
        '2, "entries": [0.1, -0.0, 1e-300, 3.0], "kind": "dense", "rows": 2}, '
        '"reg": {"A": {"cols": 3, "entries": [1.0, 0.0, 0.0, 0.0, -1.0, '
        '2.5e-07], "kind": "dense", "rows": 2}, "c": [1.0, 0.3333333333333333]'
        ', "kind": "polyhedral_indicator"}, "tol": {"kkt": 1e-10, "member": '
        '1e-07, "rank": 1e-10}}')


def test_instance_hash_follows_its_definition():
    inst = load_instance(PINNED_DOC)
    header = json.loads(instance_to_json(inst))
    del header["b"]
    for part in (header["phi"], header["k"], header["reg"]["A"]):
        del part["entries"]
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    for values in ([1.5, -2.25], PINNED_DOC["phi"]["entries"],
                   PINNED_DOC["k"]["entries"],
                   PINNED_DOC["reg"]["A"]["entries"]):
        digest.update(struct.pack(f"<{len(values)}d", *values))
    assert instance_hash(inst) == digest.hexdigest()


def test_instance_hash_survives_json_round_trip():
    inst = load_instance(PINNED_DOC)
    again = load_instance(instance_to_json(inst))
    assert instance_hash(again) == instance_hash(inst)


def test_instance_hash_sees_every_bit():
    entries = PINNED_DOC["phi"]["entries"]
    base = instance_hash(load_instance(PINNED_DOC))
    one_ulp = [float(np.nextafter(entries[0], 1.0))] + entries[1:]
    signed_zero = [entries[0], 0.0] + entries[2:]     # -0.0 becomes 0.0
    for changed in (one_ulp, signed_zero):
        assert instance_to_json(with_phi(PINNED_DOC, changed)) != \
            instance_to_json(load_instance(PINNED_DOC))
        assert instance_hash(with_phi(PINNED_DOC, changed)) != base
    b_zero = load_instance(minimal_doc(b=[0.0]))
    b_negzero = load_instance(minimal_doc(b=[-0.0]))
    assert instance_hash(b_zero) != instance_hash(b_negzero)


def test_instance_hash_tells_identity_from_dense_identity():
    structured = load_instance(minimal_doc())
    dense = load_instance(minimal_doc(
        k={"kind": "dense", "rows": 1, "cols": 1, "entries": [1.0]}))
    assert np.array_equal(materialize(structured.k), materialize(dense.k))
    assert instance_hash(structured) != instance_hash(dense)


def _entry_list_hash(instance):
    """instance_hash as first written: through to_json_dict, entries removed."""
    doc = instance.to_json_dict()
    del doc["b"]
    arrays = [instance.b]
    dense = [(doc["phi"], instance.phi._dense), (doc["k"], instance.k._dense)]
    if instance.reg.kind == "polyhedral_indicator":
        dense.append((doc["reg"]["A"], instance.reg.A))
    for part, matrix in dense:
        if part["kind"] == "dense":
            del part["entries"]
            arrays.append(matrix)
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8"))
    return digest.hexdigest()


def _hash_cases():
    rng = np.random.default_rng(6)
    dense = {"kind": "dense", "rows": 3, "cols": 4,
             "entries": rng.standard_normal(12).tolist()}
    l1 = {"kind": "group_lasso", "dim": 4, "groups": [[0, 2], [1], [3]],
          "weight": 0.3}
    grad2d = {"kind": "grad2d", "n1": 2, "n2": 2}
    tv = {"kind": "group_lasso", "dim": 8, "groups": [[i, 4 + i] for i in range(4)],
          "weight": 0.1}
    return {"dense": minimal_doc(phi=dense, b=[1.0, 2.0, 3.0],
                                 k={"kind": "dense", "rows": 4, "cols": 4,
                                    "entries": np.eye(4).ravel().tolist()},
                                 reg=l1),
            "identity": minimal_doc(phi=dense, b=[1.0, -2.0, 0.5],
                                    k={"kind": "identity", "dim": 4}, reg=l1,
                                    tol={"member": 1e-6}),
            "grad2d": minimal_doc(phi={"kind": "identity", "dim": 4},
                                  b=[0.1, 0.2, 0.3, 0.4], k=grad2d, reg=tv),
            "polyhedral": PINNED_DOC}


@pytest.mark.parametrize("name", ["dense", "identity", "grad2d", "polyhedral"])
def test_instance_hash_matches_the_entry_list_algorithm(name):
    inst = load_instance(_hash_cases()[name])
    assert instance_hash(inst) == _entry_list_hash(inst)
