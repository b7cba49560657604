"""Report serialization: deterministic JSON and CSV artifacts."""

import io
import json

from .empirics import KappaEstimate
from .linalg import Tolerances
from .model import instance_hash


def provenance(instance, seed):
    from . import __version__
    return {"instance_hash": instance_hash(instance),
            "seed": int(seed),
            "tolerances": {"rank": instance.tol.rank,
                           "member": instance.tol.member,
                           "kkt": instance.tol.kkt},
            "version": __version__}


def report_document(kind, payload, instance=None, seed=0):
    doc = {"kind": kind, "payload": payload}
    if instance is not None:
        doc["provenance"] = provenance(instance, seed)
    return doc


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        rows.append([prefix, json.dumps(obj)])
    else:
        rows.append([prefix, obj if obj is not None else ""])
    return rows


def csv_text(rows):
    """Rows as CSV text by the stdlib writer, each field as str() writes it.

    A field is quoted where it holds a comma, a quote or a line break (a
    flattened list, or a demo row's error message), so that csv.reader
    reads each row back with the same fields.  str() first: the writer
    would take a numpy float for a float and write its repr.
    """
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [str(v) for v in row] for row in rows)
    return buf.getvalue()


def dumps(doc):
    """The report text of a JSON document, as UTF-8 bytes.

    orjson writes it: keys sorted, two-space indent, a trailing newline.
    Floats are written in their shortest round-trip form (1e-05 reads
    0.00001, 2e-09 reads 2e-9), so each parses back to the same double; a
    float that is not finite is written null.  numpy scalars and int keys
    are written as the stdlib writes them, numpy arrays as lists.
    """
    import orjson   # here, not at module level: `import calmcert` stays lean
    return orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                        | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
                        | orjson.OPT_NON_STR_KEYS)


def save_report(report, fmt="json", instance=None, seed=0, kind=None):
    """Serialize a report object or a payload dict: JSON as bytes (see
    dumps), CSV as text.

    JSON round-trips losslessly, under `kind` (by default the report's class
    name in lower case, "report" for a dict); CSV flattens sweep samples one
    row per perturbation (other reports flatten to key/value rows).
    """
    if isinstance(report, KappaEstimate):
        if fmt == "csv":
            return csv_text(report.csv_rows())
        return dumps(report_document("kappa_estimate", report.to_json_dict(),
                                     instance, seed))
    payload = report.to_json_dict() if hasattr(report, "to_json_dict") else report
    if fmt == "csv":
        return csv_text(_flatten("", payload, []))
    if kind is None:
        kind = type(report).__name__.lower() if hasattr(report, "to_json_dict") \
            else "report"
    return dumps(report_document(kind, payload, instance, seed))


def tolerances_from_overrides(base, rank=None, member=None, kkt=None):
    return Tolerances(rank=rank if rank is not None else base.rank,
                      member=member if member is not None else base.member,
                      kkt=kkt if kkt is not None else base.kkt)
