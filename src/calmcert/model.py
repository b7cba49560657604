"""Problem instances P(b, mu), the catalog constructors, and JSON I/O.

An instance is min_x 1/(2 mu) ||Phi x - b||^2 + g(K x) with g from the
regularizer catalog.  Phi and K are LinearOps (linalg, re-exported here),
read through their methods; LinearOp.matrix only where a decision must
factor or stack the entries, with the reason at the call.  Dense matrices
travel over JSON as {"kind": "dense", "rows": R, "cols": C, "entries": [...]}
in row-major order, structured operators (identity, gradients) by size.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import (Tolerances, DEFAULT_TOL, InstanceError, LinearOp,
                     _matrix_header, _matrix_json)
from .regularizers import GroupLasso, Nuclear, PolyhedralIndicator


# ---------------------------------------------------------------------------
# regularizer constructors (each kind is a class in regularizers.py)


group_lasso = GroupLasso
nuclear = Nuclear
polyhedral_indicator = PolyhedralIndicator


def l1(dim, weight=1.0):
    return GroupLasso([[i] for i in range(dim)], dim, weight)


# ---------------------------------------------------------------------------
# instances and solution pairs


@dataclass
class ProblemInstance:
    phi: LinearOp
    b: np.ndarray
    mu: float
    k: LinearOp
    reg: GroupLasso | Nuclear | PolyhedralIndicator
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.phi.cols != self.k.cols:
            raise InstanceError("k", "cols(K) must equal cols(Phi)")
        if len(self.b) != self.phi.rows:
            raise InstanceError("b", "len(b) must equal rows(Phi)")
        if self.reg.dim != self.k.rows:
            raise InstanceError("reg", "regularizer dim must equal rows(K)")
        if not self.mu > 0:
            raise InstanceError("mu", "mu must be positive")
        if not np.all(np.isfinite(self.b)):
            raise InstanceError("b", "entries must be finite")

    @property
    def dim_x(self):
        return self.phi.cols

    @property
    def dim_y(self):
        return self.k.rows

    def v_of(self, x):
        """v(x) = -(1/mu) Phi^T (Phi x - b)."""
        return -self.phi.apply_adjoint(self.phi.apply(x) - self.b) / self.mu

    def smooth_grad(self, x):
        return self.phi.apply_adjoint(self.phi.apply(x) - self.b) / self.mu

    def perturbed(self, db=None, dmu=0.0):
        b = self.b if db is None else self.b + np.asarray(db, dtype=float)
        return ProblemInstance(self.phi, b, self.mu + dmu, self.k, self.reg, self.tol)

    def to_json_dict(self):
        out = {
            "phi": self.phi.to_json_dict(),
            "b": self.b.tolist(),
            "mu": float(self.mu),
            "k": self.k.to_json_dict(),
            "reg": self.reg.to_json_dict(_matrix_json),
        }
        if self.tol != DEFAULT_TOL:
            out["tol"] = self._tol_json()
        return out

    def _tol_json(self):
        return {"rank": self.tol.rank, "member": self.tol.member,
                "kkt": self.tol.kkt}


@dataclass
class SolutionPair:
    """Primal-dual pair with v_bar = -(1/mu) Phi^T(Phi x_bar - b)."""

    x_bar: np.ndarray
    y_bar: np.ndarray
    v_bar: np.ndarray
    residuals: dict                 # kkt_residual: stationarity, graph
    iterations: int = 0             # first-order iterations
    newton_steps: int = 0

    def to_json_dict(self):
        return {
            "x_bar": [float(v) for v in self.x_bar],
            "y_bar": [float(v) for v in self.y_bar],
            "v_bar": [float(v) for v in self.v_bar],
            "residuals": dict(self.residuals),
            "iterations": int(self.iterations),
            "newton_steps": int(self.newton_steps),
        }


# ---------------------------------------------------------------------------
# JSON loading


def _need(doc, key, path):
    if key not in doc:
        raise InstanceError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _number(value, path):
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise InstanceError(path, f"expected a number, got {value!r}") from None
    except OverflowError:
        raise InstanceError(path, "value must be finite (too large for a "
                                  "double)") from None
    if not np.isfinite(v):
        raise InstanceError(path, "value must be finite")
    return v


_INTP_MAX = int(np.iinfo(np.intp).max)
_JSON_KINDS = {type(None): "null", bool: "a boolean", str: "a string",
               list: "an array", dict: "an object", int: "a number",
               float: "a number"}


def _json_kind(value):
    """The JSON kind of a parsed value, for error messages."""
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _int(value, path):
    """A size or dimension field as a non-negative int.

    null, booleans, strings, arrays, objects, numbers with a fraction,
    negatives and values beyond np.intp are errors.  The errors for a value
    too large or negative do not print it, so that they read the same
    whichever parser read the document.
    """
    if isinstance(value, bool) or \
            not isinstance(value, (int, float, np.integer, np.floating)):
        raise InstanceError(path, "expected a non-negative integer, got "
                                  f"{_json_kind(value)}")
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise InstanceError(path, f"expected an integer, got {value!r}")
    if value < 0:
        raise InstanceError(path, "must be non-negative")
    if value > _INTP_MAX:
        raise InstanceError(path, f"exceeds the largest array size {_INTP_MAX}")
    return int(value)


def _check_groups(value, path, dim):
    """reg.groups must be an array of arrays of indices in 0..dim-1, each
    an integer as _int reads it.

    A value that is not an array of arrays, and an index that is null, a
    boolean, not integral or out of range, is an error that names it
    (`path[i]`, `path[i][j]`).  An index that is a plain int in range passes
    without building its path.
    """
    if not isinstance(value, list):
        raise InstanceError(path, "expected an array of index arrays, got "
                                  f"{_json_kind(value)}")
    for i, group in enumerate(value):
        if not isinstance(group, list):
            raise InstanceError(f"{path}[{i}]", "expected an array of indices, "
                                                f"got {_json_kind(group)}")
        for j, index in enumerate(group):
            if type(index) is not int or not 0 <= index < dim:
                where = f"{path}[{i}][{j}]"
                if _int(index, where) >= dim:
                    raise InstanceError(where, f"index {index} is out of range "
                                               f"for dim {dim}")


def _vector(value, path):
    if not isinstance(value, list):
        raise InstanceError(path, "expected an array of numbers")
    # fast path for the common all-numeric case; anything it does not accept
    # goes through the per-entry check, whose error names the entry
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is not None and out.ndim == 1 and np.all(np.isfinite(out)):
        return out
    return np.asarray([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])


# the sizes of each structured operator kind, LinearOp's parameters
_SIZES = {"identity": ("dim",), "grad1d": ("n",), "grad2d": ("n1", "n2")}


def at_field(prefix, build, *args, **kwargs):
    """build(*args, **kwargs), its InstanceError re-raised at prefix + its
    field: the path of an operator size, a regularizer field or a
    tolerance, or a flag."""
    try:
        return build(*args, **kwargs)
    except InstanceError as exc:
        raise InstanceError(prefix + exc.path, exc.message) from None


def _load_operator(doc, path):
    if not isinstance(doc, dict):
        raise InstanceError(path, "expected an operator object")
    kind = _need(doc, "kind", path)
    if kind == "dense":
        rows = _int(_need(doc, "rows", path), f"{path}.rows")
        cols = _int(_need(doc, "cols", path), f"{path}.cols")
        entries = _vector(_need(doc, "entries", path), f"{path}.entries")
        if entries.size != rows * cols:
            raise InstanceError(f"{path}.entries",
                                f"expected {rows * cols} entries, got {entries.size}")
        return LinearOp.dense(entries.reshape(rows, cols))
    if kind in _SIZES:
        sizes = {name: _int(_need(doc, name, path), f"{path}.{name}")
                 for name in _SIZES[kind]}
        return at_field(path + ".", LinearOp, kind, **sizes)
    raise InstanceError(f"{path}.kind", f"unknown operator kind {kind!r}")


def _load_regularizer(doc, path):
    if not isinstance(doc, dict):
        raise InstanceError(path, "expected a regularizer object")
    kind = _need(doc, "kind", path)
    if kind == "group_lasso":
        dim = _int(_need(doc, "dim", path), f"{path}.dim")
        groups = _need(doc, "groups", path)
        _check_groups(groups, f"{path}.groups", dim)
        weight = _number(_need(doc, "weight", path), f"{path}.weight")
        return at_field(path + ".", group_lasso, groups, dim, weight)
    if kind == "nuclear":
        m = _int(_need(doc, "m", path), f"{path}.m")
        n = _int(_need(doc, "n", path), f"{path}.n")
        weight = _number(_need(doc, "weight", path), f"{path}.weight")
        return at_field(path + ".", nuclear, m, n, weight)
    if kind == "polyhedral_indicator":
        # {y : A y <= c} is stored by the rows of A
        a = _load_operator(_need(doc, "A", path), f"{path}.A").matrix
        if a.shape[0] and not a.shape[1]:
            raise InstanceError(f"{path}.A", "A has rows but no column")
        c = _vector(_need(doc, "c", path), f"{path}.c")
        if c.size != a.shape[0]:
            raise InstanceError(f"{path}.c", "length must match rows of A")
        reg = polyhedral_indicator(a, c)
        if reg.is_empty():
            raise InstanceError(path, "polyhedral set {y : A y <= c} is empty")
        return reg
    raise InstanceError(f"{path}.kind", f"unknown regularizer kind {kind!r}")


def _parse(text, path):
    """A JSON document (str or bytes) as the objects `json.loads` gives.

    orjson parses what it accepts, about five times faster than the stdlib
    on a large dense instance, to the same doubles: both round every decimal
    correctly.  The stdlib parses the rest: NaN and Infinity literals,
    numbers beyond the double range, a byte-order mark, UTF-16 or UTF-32, so
    those keep its values and its error messages.  orjson reads an integer
    of 2**64 or more, or below -2**63, as the nearest double, where the
    stdlib keeps it exact; that changes no outcome: a vector entry becomes
    that double either way, and a size field rejects the value (see _int)
    without printing it.
    """
    import orjson   # here, not at module level: `import calmcert` stays lean
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceError(path, f"invalid JSON: {exc}") from None


def load_vector(text, path):
    """Parse a JSON array of finite numbers (str or bytes) to a float vector.

    Errors carry `path`, an entry's as `path[i]`.
    """
    return _vector(_parse(text, path), path)


def load_instance(text):
    """Parse and validate an instance JSON document (str, bytes or dict)."""
    doc = _parse(text, "<document>") if isinstance(text, (str, bytes)) else text
    if not isinstance(doc, dict):
        raise InstanceError("<document>", "top level must be an object")
    phi = _load_operator(_need(doc, "phi", ""), "phi")
    b = _vector(_need(doc, "b", ""), "b")
    mu = _number(_need(doc, "mu", ""), "mu")
    k = _load_operator(_need(doc, "k", ""), "k")
    reg = _load_regularizer(_need(doc, "reg", ""), "reg")
    tol = DEFAULT_TOL
    if "tol" in doc and doc["tol"] is not None:
        t = doc["tol"]
        if not isinstance(t, dict):
            raise InstanceError("tol", "expected an object")
        kw = {key: _number(t[key], f"tol.{key}")
              for key in ("rank", "member", "kkt") if key in t}
        tol = at_field("tol.", Tolerances, **kw)
    return ProblemInstance(phi=phi, b=b, mu=mu, k=k, reg=reg, tol=tol)


def instance_to_json(instance):
    return json.dumps(instance.to_json_dict(), sort_keys=True)


def instance_hash(instance):
    """sha256 of the canonical instance serialization, floats in binary.

    Hashed: the canonical JSON (`instance_to_json`) without b and without
    the entries of each dense operator (kind, rows and cols stay), then the
    little-endian float64 bytes of b and of the dense phi, k and reg.A, in
    that order.  The header fixes every length, and shortest-repr text and
    float64 are in bijection on finite floats, so two instances hash alike
    exactly when their canonical JSON is the same.  The header is built
    without the entry lists of `to_json_dict`, whose `tolist` of a large
    dense matrix costs more than hashing its bytes.
    """
    arrays = [instance.b]

    def header(matrix):
        arrays.append(matrix)
        return _matrix_header(matrix)

    doc = {"mu": float(instance.mu)}
    for key in ("phi", "k"):
        op = getattr(instance, key)
        # a dense operator's entries are hashed as bytes, not as JSON text
        doc[key] = header(op.matrix) if op.kind == "dense" else op.to_json_dict()
    doc["reg"] = instance.reg.to_json_dict(header)
    if instance.tol != DEFAULT_TOL:
        doc["tol"] = instance._tol_json()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8"))
    return digest.hexdigest()
