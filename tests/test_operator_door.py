"""LinearOp is the one way in to Phi and K.

The program reads an operator through LinearOp's methods: outside the module
that defines LinearOp no file reads its private entries or copies them out,
every read of the dense entries says why on its line or the line above, and
the cone and regularizer decisions coerce a plain matrix with as_operator
instead of forking on np.ndarray.  The rule for a plain matrix is pinned in
test_operator_coercion.py.
"""

import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calmcert"
HOME = next(p for p in SRC.glob("*.py")
            if re.search(r"^class LinearOp\b", p.read_text(), re.M))


def _lines(path):
    return path.read_text().splitlines()


def _outside_home():
    return [p for p in sorted(SRC.glob("*.py")) if p != HOME]


def test_no_private_entries_or_copies_outside_the_operator_module():
    found = [f"{p.name}:{i}: {line.strip()}" for p in _outside_home()
             for i, line in enumerate(_lines(p), 1)
             if re.search(r"\._dense\b|materialize\(", line)]
    assert found == []


def test_cones_and_regularizers_do_not_fork_on_arrays():
    pattern = re.compile(r"isinstance\([^)]*np\.ndarray\)|getattr\([^)]*is_identity")
    found = [f"{name}:{i}: {line.strip()}" for name in ("cones.py", "regularizers.py")
             for i, line in enumerate(_lines(SRC / name), 1) if pattern.search(line)]
    assert found == []


def test_every_dense_read_says_why():
    # the reason is a comment on the line of the read or on the line above
    found = []
    for p in _outside_home():
        with p.open() as fh:
            tokens = list(tokenize.generate_tokens(fh.readline))
        comments = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
        found += [f"{p.name}:{t.start[0]}" for prev, t in zip(tokens, tokens[1:])
                  if prev.string == "." and t.string == "matrix"
                  and not {t.start[0], t.start[0] - 1} & comments]
    assert found == []


def test_materialize_is_not_a_public_name():
    import calmcert
    import calmcert.linalg
    import calmcert.model
    assert not hasattr(calmcert, "materialize")
    assert not hasattr(calmcert.model, "materialize")
    assert calmcert.model.LinearOp is calmcert.linalg.LinearOp
