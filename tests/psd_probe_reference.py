"""The PSD probe as it ran one start at a time, kept verbatim as the test
reference for the stacked `calmcert.cones._psd_probe`.

Each of the 32 starts iterates on its own, with one cone projection (one
eigh) per iteration, and the first verified witness returns at once.
"""

import numpy as np

from calmcert.cones import TrivialityVerdict, _verify_witness
from calmcert.linalg import null_space


def _psd_probe(mat, norm, cone, k_mat, inner_psd, tol, seed):
    """Alternating-projection probe for the heuristic-only PSD-degenerate case."""
    n_sub = null_space(mat, tol)
    if n_sub.dim == 0:
        return TrivialityVerdict.trivial()
    rng = np.random.default_rng(seed)
    kplus = np.linalg.pinv(k_mat) if k_mat is not None else None
    for _ in range(32):
        xi = rng.standard_normal(n_sub.dim)
        w = n_sub.basis @ (xi / np.linalg.norm(xi))
        for _ in range(500):
            w = n_sub.project(w)
            if k_mat is None:
                w = inner_psd.project(w)
            else:
                y = inner_psd.project(k_mat @ w)
                w = w + kplus @ (y - k_mat @ w)
            if np.linalg.norm(w) < 1e-8:
                break
        nrm = float(np.linalg.norm(w))
        if nrm >= 0.5:
            cand = _verify_witness(mat, norm, cone, n_sub.project(w), tol)
            if cand is not None:
                return TrivialityVerdict.nontrivial(cand)
    return TrivialityVerdict.unknown("PSD cone, heuristic inconclusive")
