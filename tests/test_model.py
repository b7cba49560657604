import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest

import calmcert
from calmcert.linalg import Tolerances, null_space, range_space
from calmcert.model import (InstanceError, LinearOp, group_lasso, load_instance,
                            instance_to_json, instance_hash,
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
    d = LinearOp.grad1d(3).matrix
    assert np.array_equal(d, np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))


def ref_grad1d(n):
    """grad1d by the loop over its rows, the reference of the index arrays."""
    d = np.zeros((n - 1, n))
    for i in range(n - 1):
        d[i, i] = 1.0
        d[i, i + 1] = -1.0
    return d


def ref_grad2d(n1, n2):
    """grad2d by the loops over the pixels, the reference of the index arrays."""
    m = np.zeros((2 * n1 * n2, n1 * n2))
    idx = lambda i, j: i * n2 + j
    for i in range(n1):
        for j in range(n2):
            row = idx(i, j)
            if i < n1 - 1:
                m[row, idx(i + 1, j)] = 1.0
                m[row, idx(i, j)] = -1.0
    for i in range(n1):
        for j in range(n2):
            row = n1 * n2 + idx(i, j)
            if j < n2 - 1:
                m[row, idx(i, j + 1)] = 1.0
                m[row, idx(i, j)] = -1.0
    return m


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 6),
                                    (8, 8), (33, 33)])
def test_grad2d_matches_the_pixel_loops(n1, n2):
    assert np.array_equal(LinearOp.grad2d(n1, n2).matrix,
                          ref_grad2d(n1, n2))


@pytest.mark.parametrize("n", [2, 7])
def test_grad1d_matches_the_row_loop(n):
    assert np.array_equal(LinearOp.grad1d(n).matrix, ref_grad1d(n))


def test_identity_materialization():
    assert np.array_equal(LinearOp.identity(2).matrix, np.eye(2))


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
    assert np.array_equal(LinearOp.grad2d(2, 2).matrix, expected)


def test_grad1d_rejects_small():
    with pytest.raises(ValueError):
        LinearOp.grad1d(1)


@pytest.mark.parametrize("n", range(2, 11))
def test_grad1d_surjective(n):
    assert range_space(LinearOp.grad1d(n).matrix, TOL).dim == n - 1


@pytest.mark.parametrize("n1,n2", [(2, 2), (2, 3), (3, 3)])
def test_grad2d_not_surjective(n1, n2):
    d = LinearOp.grad2d(n1, n2).matrix
    assert range_space(d, TOL).dim < 2 * n1 * n2


@pytest.mark.parametrize("n", range(2, 8))
def test_grad1d_kernel_is_constants(n):
    ns = null_space(LinearOp.grad1d(n).matrix, TOL)
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
    assert np.array_equal(inst.phi.matrix, inst2.phi.matrix)
    assert np.array_equal(inst.k.matrix, inst2.k.matrix)
    assert instance_hash(inst) == instance_hash(inst2)
    assert instance_to_json(inst2) == text


def test_v_of_matches_definition():
    inst = load_instance(json.dumps(minimal_doc()))
    x = np.array([2.0])
    assert np.allclose(inst.v_of(x), -(1.0 / inst.mu) *
                       inst.phi.matrix.T @ (inst.phi.matrix @ x - inst.b))


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
    for arr in (box.A, box.c, reg.group_slices[0], *reg.segments, op.matrix):
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
             "zero": np.zeros((4, 6)), "empty": np.zeros((0, 3)),
             "rank_one": np.outer(rng.standard_normal(9), rng.standard_normal(5)),
             "row": rng.standard_normal((1, 12)),
             "column": rng.standard_normal((12, 1))}
    ops = {name: LinearOp.dense(m) for name, m in dense.items()}
    ops.update(identity=LinearOp.identity(5), grad1d=LinearOp.grad1d(9),
               grad2d=LinearOp.grad2d(4, 6))
    return ops


NORM_CASES = _norm_cases()


@pytest.mark.parametrize("name", sorted(NORM_CASES))
def test_op_norm_matches_the_spectral_norm(name):
    op = NORM_CASES[name]
    m = op.matrix
    want = float(np.linalg.norm(m, 2)) if m.size else 0.0
    assert abs(op.op_norm() - want) <= 1e-12 * want


@pytest.mark.parametrize("size", [(1, 1), (1, 4), (4, 1), (3, 5), (6, 6),
                                  (8, 8), (16, 16), (33, 33), (2,), (7,), (50,)],
                         ids=lambda size: "x".join(map(str, size)))
def test_gradient_op_norm_is_the_closed_form(monkeypatch, size):
    # the largest eigenvalue of K^T K, read off a path Laplacian's spectrum
    # with no eigensolve; grad2d of a 1 x 1 image has norm 0 exactly
    op = LinearOp.grad2d(*size) if len(size) == 2 else LinearOp.grad1d(*size)
    m = op.matrix
    want = float(np.sqrt(max(np.linalg.eigvalsh(m.T @ m)[-1], 0.0)))

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("operator norm from an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    got = op.op_norm()
    assert abs(got - want) <= 1e-14 * want
    assert (got == 0.0) == (size == (1, 1))


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
    assert np.array_equal(structured.k.matrix, dense.k.matrix)
    assert instance_hash(structured) != instance_hash(dense)


def _entry_list_hash(instance):
    """instance_hash as first written: through to_json_dict, entries removed."""
    doc = instance.to_json_dict()
    del doc["b"]
    arrays = [instance.b]
    dense = [(doc["phi"], instance.phi.matrix), (doc["k"], instance.k.matrix)]
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


# ---------------------------------------------------------------------------
# the two parse paths: orjson, and the stdlib for what orjson refuses


def _outcome(text):
    """instance_hash of the loaded instance, or the error's (path, message)."""
    try:
        return instance_hash(load_instance(text))
    except InstanceError as exc:
        return exc.path, str(exc)


def _stdlib_outcome(text):
    """The same, with the document parsed by `json.loads` alone."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return "<document>", f"<document>: invalid JSON: {exc}"
    return _outcome(doc)


def _numbers_doc(literals):
    """An n x 1 instance whose phi entries and b are the given literals."""
    body = ", ".join(literals)
    return ('{"phi": {"kind": "dense", "rows": %d, "cols": 1, "entries": [%s]}, '
            '"b": [%s], "mu": 1.0, "k": {"kind": "identity", "dim": 1}, '
            '"reg": {"kind": "group_lasso", "dim": 1, "groups": [[0]], '
            '"weight": 1.0}}' % (len(literals), body, body))


def _random_doubles():
    bits = np.random.default_rng(20).integers(0, 2 ** 64, size=2 ** 14,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


@pytest.mark.parametrize("spelling", [repr, lambda v: format(v, ".24e")],
                         ids=["shortest-repr", "25-digits"])
def test_random_doubles_parse_alike(spelling):
    text = _numbers_doc([spelling(float(v)) for v in _random_doubles()])
    orjson.loads(text)                  # the fast path reads the document
    hashed = _outcome(text)
    assert isinstance(hashed, str) and hashed == _stdlib_outcome(text)
    assert _outcome(text.encode()) == hashed


def test_subnormals_signed_zeros_and_ties_parse_alike():
    literals = ["5e-324", "-5e-324", "2.2250738585072009e-308", "1e-310",
                "-4.9406564584124654e-324", "0.0", "-0.0", "0", "-0",
                # halfway between two doubles: ties go to the even one
                "9007199254740993.0", "9007199254740995.0",
                "1.00000000000000011102230246251565404236316680908203125",
                "1.000000000000000111022302462515654042363166809082031251",
                "9007199254740993"]
    text = _numbers_doc(literals)
    orjson.loads(text)
    inst = load_instance(text)
    assert np.signbit(inst.b[6]) and not np.signbit(inst.b[5])
    assert inst.b[0] == 5e-324 and inst.b[9] == 2.0 ** 53
    assert _outcome(text) == _stdlib_outcome(text)


def _edge_documents():
    text = json.dumps(minimal_doc(b=["X"]))
    dense = json.dumps(minimal_doc(phi={"kind": "dense", "rows": "R", "cols": 1,
                                        "entries": [1.0]}))
    return {
        "nan": text.replace('"X"', "NaN"),
        "infinity": text.replace('"X"', "-Infinity"),
        "1e400": text.replace('"X"', "1e400"),
        "10**400": text.replace('"X"', str(10 ** 400)),
        "2**64-rows": dense.replace('"R"', str(2 ** 64)),
        "utf8-bom-bytes": b"\xef\xbb\xbf" + text.replace('"X"', "2.5").encode(),
        "utf8-bom-str": "\ufeff" + text.replace('"X"', "2.5"),
        "utf16": text.replace('"X"', "2.5").encode("utf-16"),
        "duplicate-keys": '{"mu": -1.0, ' + text.replace('"X"', "2.5")[1:],
        "trailing-garbage": text.replace('"X"', "2.5") + " x",
    }


@pytest.mark.parametrize("name", list(_edge_documents()))
def test_edge_documents_load_as_with_the_stdlib(name):
    text = _edge_documents()[name]
    assert _outcome(text) == _stdlib_outcome(text)


def test_edge_document_outcomes():
    docs = _edge_documents()
    for name in ("nan", "infinity", "1e400", "10**400"):
        assert _outcome(docs[name])[1].startswith("b[0]: value must be finite")
    for name in ("utf8-bom-bytes", "utf16", "duplicate-keys"):
        assert load_instance(docs[name]).b.tolist() == [2.5]
    assert _outcome(docs["2**64-rows"])[0] == "phi.rows"
    for name in ("utf8-bom-str", "trailing-garbage"):
        assert _outcome(docs[name])[0] == "<document>"
    with pytest.raises(InstanceError, match="^<document>: invalid JSON"):
        load_instance(b'{"mu": "\xff"}')


def test_integer_beyond_64_bits_keeps_the_field_path():
    # orjson reads 2**64 + 1 as the double 2**64; a size that large is
    # rejected at its own field, with the same message from either parser
    text = json.dumps(minimal_doc(phi={"kind": "dense", "rows": 2 ** 64 + 1,
                                       "cols": 1, "entries": [1.0]}))
    assert _outcome(text) == _stdlib_outcome(text)
    assert _outcome(text)[0] == "phi.rows"


def test_import_loads_neither_orjson_nor_scipy_optimize():
    src = str(Path(calmcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, calmcert; "
             "print(sorted({'orjson', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
