"""One reading of the pair per verb run.

The certificates and the instability probe read the conjugate face of y_bar
through certificates.read_pair, which builds it once and hands a Reading on
unchanged; no face is kept on the regularizer.  The scans below pin the
code's shape, the rest its behaviour on the gallery.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from calmcert import certificates as ct
from calmcert import regularizers as rz
from calmcert.cli import run
from calmcert.empirics import instability_probe
from calmcert.gallery import curated_cases
from calmcert.model import load_instance
from calmcert.solver import pair_config, solve

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"
CASES = {case["name"]: case["instance"] for case in curated_cases()}


def _tree(name):
    return ast.parse((SRC / name).read_text())


def _calls(node, name):
    """The calls under node of a function or method called name."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and (getattr(n.func, "id", None) == name
                 or getattr(n.func, "attr", None) == name)]


def _functions(tree):
    return {n.name: n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_module_reads_an_objects_attribute_dict():
    for path in sorted(SRC.glob("*.py")):
        assert _calls(ast.parse(path.read_text()), "vars") == [], path.name


def test_the_face_is_built_only_by_read_pair():
    tree = _tree("certificates.py")
    building = [name for name, f in _functions(tree).items()
                if _calls(f, "conj_subdiff_face")]
    assert building == ["read_pair"]
    assert len(_calls(tree, "conj_subdiff_face")) == 1     # none at module level
    probe = _functions(_tree("empirics.py"))["instability_probe"]
    assert _calls(probe, "conj_subdiff_face") == []
    assert len(_calls(probe, "read_pair")) == 1
    # and no reader builds a face past conj_subdiff_face
    assert _calls(tree, "face") == _calls(probe, "face") == []


def test_a_reading_is_read_once():
    inst = load_instance(CASES["lasso_segment"])
    reading = ct.read_pair(inst, solve(inst))
    assert ct.read_pair(inst, reading) is reading
    report = ct.certify_primal_dual(inst, reading)
    assert np.array_equal(report.y_used, reading.y_bar)
    assert np.array_equal(reading.kx, inst.k.apply(reading.x_bar))


@pytest.fixture
def face_builds(monkeypatch):
    """The faces built from here on, of every regularizer kind."""
    builds = []
    for kind in (rz.GroupLasso, rz.Nuclear, rz.PolyhedralIndicator):
        def counted(reg, y_bar, tol, build=kind.face):
            builds.append(reg.kind)
            return build(reg, y_bar, tol)
        monkeypatch.setattr(kind, "face", counted)
    return builds


@pytest.mark.parametrize("name", sorted(CASES))
def test_reading_a_pair_keeps_nothing_on_the_regularizer(name, face_builds):
    inst = load_instance(CASES[name])
    pair = solve(inst, pair_config(inst))
    attributes = dict(vars(inst.reg))
    report = ct.certify_primal_dual(inst, pair)
    witness = report.conclusion_solution_map.witness
    if witness is None:
        witness = np.ones(inst.dim_x)
    instability_probe(inst, pair, witness, [1e-1, 1e-2])
    assert vars(inst.reg) == attributes
    assert len(face_builds) == 2                # each reads the pair itself
    # a reader handed a Reading builds nothing
    reading = ct.read_pair(inst, pair)
    ct.certify_primal_dual(inst, reading)
    instability_probe(inst, reading, witness, [1e-1, 1e-2])
    assert len(face_builds) == 3


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("verb", ["certify-pd", "probe"])
def test_a_verb_builds_one_face(name, verb, face_builds, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(CASES[name]))
    assert run([verb, str(path), "--out", str(tmp_path / "out.json")]) in (0, 2)
    assert len(face_builds) == 1
