import json
import math
import struct

import numpy as np

from calmcert.certificates import certify_solution_map
from calmcert.empirics import perturbation_sweep
from calmcert.gallery import instance_for
from calmcert.reporting import dumps, save_report
from calmcert.solver import solve


def test_trivial_verdict_serializes_as_holds():
    inst = instance_for("lasso_scalar")
    report = certify_solution_map(inst, solve(inst))
    text = save_report(report, "json", inst, seed=0)
    doc = json.loads(text)
    assert doc["payload"]["cond_suf"]["outcome"] == "holds"
    assert doc["payload"]["cond_nes"]["outcome"] == "holds"
    # a polyhedral face is qualified as it stands: no ri test is made
    assert doc["payload"]["qual_polyhedral"] is True
    assert doc["payload"]["qual_ri"] == "not evaluated"


def test_witness_serialized_as_array_of_dim_x():
    inst = instance_for("lasso_segment")
    report = certify_solution_map(inst, solve(inst))
    doc = json.loads(save_report(report, "json", inst, seed=0))
    witness = doc["payload"]["conclusion_solution_map"]["witness"]
    assert isinstance(witness, list) and len(witness) == inst.dim_x


def test_sweep_csv_one_row_per_perturbation():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    est = perturbation_sweep(inst, pair, [1e-2], n_per_radius=3, seed=0)
    lines = save_report(est, "csv").strip().splitlines()
    assert len(lines) == 4          # header + 3 samples
    assert lines[0].startswith("radius,")


def test_json_round_trip_lossless():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    est = perturbation_sweep(inst, pair, [1e-2, 1e-3], n_per_radius=4, seed=1)
    doc = json.loads(save_report(est, "json", inst, seed=1))
    payload = doc["payload"]
    assert payload["radii"] == [1e-2, 1e-3]
    assert len(payload["samples"]) == 8
    for recorded, original in zip(payload["kappa_hat_per_radius"],
                                  est.kappa_hat_per_radius):
        assert recorded == original


def test_certificate_csv_flattens_keys():
    inst = instance_for("lasso_scalar")
    report = certify_solution_map(inst, solve(inst))
    text = save_report(report, "csv")
    assert "conclusion_solution_map.status,isolated_calm" in text


def test_report_text_format():
    doc = {"b": [1e-05, 2e-09, 0.1, -0.0, 1e16, 5e-324, 1.7976931348623157e308],
           "a": {"z": None, "y": True}, 3: "int key"}
    text = dumps(doc)
    assert isinstance(text, bytes) and text.endswith(b"}\n")
    lines = text.decode().splitlines()
    assert lines[:3] == ['{', '  "3": "int key",', '  "a": {']
    assert lines[3:5] == ['    "y": true,', '    "z": null']
    back = json.loads(text)
    assert list(back) == ["3", "a", "b"] and list(back["a"]) == ["y", "z"]
    for got, want in zip(back["b"], doc["b"]):
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_report_numpy_scalars_and_non_finite_values():
    doc = {"f": np.float64(0.1), "i": np.int64(-3), "t": np.bool_(True),
           "v": np.array([1.5, 2.0]),
           "n": [math.inf, -math.inf, math.nan, np.float64("inf")]}
    back = json.loads(dumps(doc))
    assert back == {"f": 0.1, "i": -3, "t": True, "v": [1.5, 2.0],
                    "n": [None] * 4}
    assert json.loads(dumps({"x": 0.1})) == json.loads(
        json.dumps({"x": np.float64(0.1)}, sort_keys=True, indent=2))
