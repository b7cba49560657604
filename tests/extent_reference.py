"""The solution-set LP over every coordinate, for comparison with
certificates.solution_set_extent, which drops the coordinates that a row of
E K pins at 0 before it solves.

full_extent(instance, pair, c, level) maximizes c^T d over
{d : Phi d = 0, E K d = 0, A K d <= max(c - A K x_bar, 0)} within
||d||_inf <= max(1, ||x_bar||_inf), one HiGHS LP on all n columns, and
returns x_bar + d under the same two checks (farther than the pair's
resolution, KKT with y_bar at `level`), or None.
"""

import numpy as np

from calmcert import regularizers as rz
from calmcert.certificates import solution_resolution
from calmcert.cones import linear_program
from calmcert.solver import kkt_bound, kkt_residual, kkt_within


def full_extent(instance, pair, c, level):
    x = np.asarray(pair.x_bar, dtype=float)
    y = np.asarray(pair.y_bar, dtype=float)
    face = rz.conj_subdiff_face(instance.reg, y, instance.tol)
    if not face.is_polyhedral:
        return None
    a, c_face, e, _ = face.polyhedral_system()
    k = instance.k.matrix
    eq = np.vstack([instance.phi.matrix, e @ k])
    box = max(1.0, float(np.abs(x).max(initial=0.0)))
    lp = linear_program(-np.asarray(c, dtype=float), a @ k,
                        np.maximum(c_face - a @ (k @ x), 0.0), eq,
                        np.zeros(eq.shape[0]), bounds=(-box, box))
    if lp.status != 0:
        return None
    end = x + lp.x
    if float(np.linalg.norm(lp.x)) <= solution_resolution(instance) or \
            not kkt_within(kkt_residual(instance, end, y),
                           kkt_bound(instance, level)):
        return None
    return end
