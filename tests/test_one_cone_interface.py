"""One cone interface: each cone carries its own decision procedure.

An exact cone lifts itself (`lifted`, the system `_decide` reads) and a PSD
cone hands the probe its parts (`probe_parts`); `trivial_intersection` asks
the cone and never which class it is, and `preimage` makes every preimage a
`PreimageCone`.  The scans below hold that in the source, and the
behavioural test holds every cone form to the references that still branch
on the class: the two-step decision (tests/two_step_reference.py) for exact
cones, the per-start probe (tests/psd_probe_reference.py) for PSD ones.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from calmcert.cones import (PolyhedralCone, PreimageCone, PsdCone,
                            SubspacePlusRays, preimage, trivial_intersection)
from calmcert.linalg import Subspace, Tolerances
from calmcert.model import LinearOp

import psd_probe_reference
from two_step_reference import kernel_op, ref_trivial_intersection

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"
PROCEDURES = {"lifted", "probe_parts"}
TOL = Tolerances()


def _classes():
    tree = ast.parse((SRC / "cones.py").read_text())
    return {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}


def _cone_classes():
    """The classes of cones.py that derive from Cone, by name."""
    classes = _classes()

    def is_cone(node):
        return any(isinstance(b, ast.Name) and (
            b.id == "Cone" or b.id in classes and is_cone(classes[b.id]))
            for b in node.bases)
    return {name: node for name, node in classes.items() if is_cone(node)}


def _methods(node):
    return {n.name: n for n in node.body if isinstance(n, ast.FunctionDef)}


def _function(name):
    tree = ast.parse((SRC / "cones.py").read_text())
    return next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


@pytest.mark.parametrize("name", ["trivial_intersection", "preimage"])
def test_the_decision_and_the_pull_back_ask_no_class(name):
    calls = [n for n in ast.walk(_function(name)) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "isinstance"]
    assert calls == []


def test_no_cone_is_left_without_a_procedure():
    for path in sorted(SRC.glob("*.py")):
        assert "no decision procedure" not in path.read_text(), path.name


def test_each_cone_class_defines_one_procedure():
    cones = _cone_classes()
    assert set(cones) == {"SubspacePlusRays", "PolyhedralCone", "PsdCone",
                          "PreimageCone"}
    kinds = {}
    for name, node in cones.items():
        if name == "PreimageCone":               # its inner cone's kind, below
            continue
        own = PROCEDURES & set(_methods(node))
        assert len(own) == 1, (name, own)
        kinds[name] = own.pop()
    assert kinds == {"SubspacePlusRays": "lifted", "PolyhedralCone": "lifted",
                     "PsdCone": "probe_parts"}
    # the class attribute names the kind: PSD cones are not exact
    assert [n.targets[0].id for n in cones["PsdCone"].body
            if isinstance(n, ast.Assign)] == ["exact"]
    assert not PsdCone.exact and SubspacePlusRays.exact and PolyhedralCone.exact


def test_a_preimage_takes_its_kind_and_procedure_from_its_inner_cone():
    # a preimage's procedures each call its inner cone's own, and its kind
    # is its inner cone's
    methods = _methods(_cone_classes()["PreimageCone"])
    for name in PROCEDURES:
        reads = {(n.value.attr, n.attr) for n in ast.walk(methods[name])
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Attribute)}
        assert ("inner", name) in reads, name
    for inner in (_psd(), SubspacePlusRays(Subspace.full(4))):
        assert PreimageCone(np.eye(4), inner).exact == inner.exact


# ---------------------------------------------------------------------------
# every cone form against the references


def _psd():
    return PsdCone(np.eye(2), np.eye(2), p=2,
                   kernel_basis=np.array([[0.0], [1.0]]), m=2, n=2)


def _forms():
    """(name, cone, kernels M): every form a cone takes, with operators M
    whose kernels are random subspaces of each dimension (exact forms) or
    the E22 and E12 lines of the PSD tests (PSD forms)."""
    rng = np.random.default_rng(53)
    rays = SubspacePlusRays(Subspace(3, rng.standard_normal((3, 1))),
                            list(rng.standard_normal((2, 3))))
    poly = PolyhedralCone(rng.standard_normal((3, 4)),
                          rng.standard_normal((1, 4)))
    k = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    exact = {
        "subspace": SubspacePlusRays(Subspace(4, rng.standard_normal((4, 2)))),
        "subspace_plus_rays": SubspacePlusRays(
            Subspace(4, rng.standard_normal((4, 1))),
            list(rng.standard_normal((3, 4)))),
        "polyhedral": poly,
        "preimage_of_rays": preimage(LinearOp.grad1d(4), rays, TOL),
        "preimage_of_polyhedral": PreimageCone(k, poly),
    }
    for name, cone in exact.items():
        ms = [kernel_op(Subspace(4, rng.standard_normal((4, d))))
              for d in (1, 2, 3) for _ in range(8)]
        yield name, cone, ms
    e22, e12 = np.eye(4)[3], np.eye(4)[1]
    lines = [kernel_op(Subspace(4, line)) for line in (e22, e12)]
    yield "psd", _psd(), lines
    q = np.random.default_rng(5).standard_normal((4, 4)) + 4.0 * np.eye(4)
    yield "preimage_of_psd", PreimageCone(q, _psd()), [m @ q for m in lines]


def _reference(m, cone, seed):
    """The decision by class, as the references make it."""
    if isinstance(cone, PsdCone):
        parts = (None, cone)
    elif isinstance(cone, PreimageCone) and isinstance(cone.inner, PsdCone):
        parts = (cone.K, cone.inner)
    else:
        return ref_trivial_intersection(m, cone, TOL)
    return psd_probe_reference._psd_probe(m, float(np.linalg.norm(m, 2)), cone,
                                          *parts, TOL, seed)


FORMS = list(_forms())


@pytest.mark.parametrize("name, cone, ms", FORMS, ids=[f[0] for f in FORMS])
def test_every_cone_form_decides_as_the_references(name, cone, ms):
    outcomes = set()
    for m in ms:
        got, want = trivial_intersection(m, cone, TOL, seed=4), \
            _reference(m, cone, seed=4)
        assert got.outcome == want.outcome, (name, got.reason, want.reason)
        if got.is_nontrivial:
            assert np.linalg.norm(m @ got.witness) <= 1e-9
            assert cone.member(got.witness, 10 * TOL.member)
        outcomes.add(got.outcome)
    expected = {"nontrivial", "unknown"} if name.endswith("psd") \
        else {"trivial", "nontrivial"}
    assert outcomes == expected


def test_every_preimage_is_a_preimage_cone():
    # one pull-back path: no cone pulls itself back, and preimage returns
    # the cone for K = I and a PreimageCone over it otherwise
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "pulled_back" not in text and "_pull_back_rows" not in text, \
            path.name
    returns = {ast.unparse(n.value) for n in ast.walk(_function("preimage"))
               if isinstance(n, ast.Return)}
    assert returns == {"cone", "PreimageCone(k_op.matrix, cone)"}
    k = np.random.default_rng(55).standard_normal((4, 4))
    for name, cone, _ in FORMS:
        assert preimage(LinearOp.identity(4), cone, TOL) is cone, name
        pre = preimage(k, cone, TOL)
        assert type(pre) is PreimageCone and pre.inner is cone, name
        assert pre.K.tobytes() == k.tobytes(), name
