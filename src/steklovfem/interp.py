"""Interpolation operators and the corner singularity model function.

Point functions carry an optional slit-side argument: on the slit domain a
point on the open slit has two function values, one per side, and evaluation
there needs to know which copy is meant (``-1`` below, ``+1`` above, ``0``
anywhere else).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import CR, P1, DofMap, EDGE_GAUSS_POINTS, EDGE_GAUSS_WEIGHTS
from .mesh import LOCAL_EDGES, DomainSpec, Mesh, edge_slit_sides

__all__ = [
    "PointFunction",
    "as_point_function",
    "singular_model",
    "interpolate_p1",
    "interpolate_cr",
]


@dataclass(frozen=True)
class PointFunction:
    """A function of coordinates, optionally aware of the slit side.

    ``evaluation(x1, x2, side)`` must accept equal-shape arrays and
    broadcast; ``side`` entries follow the mesh convention (-1 lower slit
    side, +1 upper, 0 off the slit).
    """

    evaluation: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, y, side=0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        side = np.broadcast_to(np.asarray(side), x.shape)
        return np.asarray(self.evaluation(x, y, side), dtype=float)


def as_point_function(f) -> PointFunction:
    """Wrap a plain ``f(x1, x2)`` callable; PointFunctions pass through."""
    if isinstance(f, PointFunction):
        return f
    return PointFunction(evaluation=lambda x, y, side: f(x, y))


def singular_model(domain: DomainSpec) -> PointFunction:
    """The leading corner singularity ``rho**(pi/omega) * cos(pi*theta/omega)``.

    Polar coordinates are centered at the reentrant corner ``(1/2, 1/2)``
    with ``theta`` measured so that the interior of the domain corresponds to
    ``0 <= theta <= omega`` (clockwise from the rightward direction, matching
    the mesh orientation of both concave domains).  On the slit the angle is
    0 on the lower side and ``2*pi`` on the upper side, which the slit-side
    flag disambiguates: the model is ``+sqrt(rho)`` below and ``-sqrt(rho)``
    above.

    Raises
    ------
    ValueError
        For the convex square, which has no reentrant corner.
    """
    corner = domain.corner
    if corner is None:
        raise ValueError("the square has no reentrant corner; no singular model")
    omega = domain.corner_angle
    exponent = math.pi / omega
    cx, cy = corner
    two_pi = 2.0 * math.pi
    is_slit = domain.kind == "slit"

    def evaluation(x, y, side):
        dx = x - cx
        dy = y - cy
        rho = np.hypot(dx, dy)
        theta = np.mod(-np.arctan2(dy, dx), two_pi)
        if is_slit:
            on_slit = (dy == 0.0) & (dx > 0.0)
            theta = np.where(on_slit & (side > 0), two_pi, theta)
        return rho ** exponent * np.cos(exponent * theta)

    return PointFunction(evaluation=evaluation)


def interpolate_p1(mesh: Mesh, dofmap: DofMap, f) -> np.ndarray:
    """Nodal interpolation: dof values are the vertex values of ``f``."""
    if dofmap.family != P1:
        raise ValueError("interpolate_p1 requires a P1 dof map")
    pf = as_point_function(f)
    return pf(mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertex_slit_side)


def interpolate_cr(mesh: Mesh, dofmap: DofMap, f) -> np.ndarray:
    """Edge-average interpolation onto Crouzeix-Raviart.

    Each dof value is the mean of ``f`` over its edge, computed with the
    two-point Gauss rule (exact for the cubics this project integrates).
    This operator reproduces edge averages exactly, which is what the
    nonconforming a-priori analysis needs.  Each edge's endpoints are read
    off the triangles through ``dofmap.cell_dofs``, as its sorted vertex pair.
    """
    if dofmap.family != CR:
        raise ValueError("interpolate_cr requires a CR dof map")
    pf = as_point_function(f)
    ends = np.empty((dofmap.n_dofs, 2), dtype=mesh.triangles.dtype)
    ends[dofmap.cell_dofs] = np.sort(mesh.triangles[:, LOCAL_EDGES], axis=2)
    pa, pb = mesh.vertices[ends.T]
    side = edge_slit_sides(mesh, *ends.T)
    mean = np.zeros(dofmap.n_dofs)
    for t, w in zip(EDGE_GAUSS_POINTS, EDGE_GAUSS_WEIGHTS):
        pt = (1.0 - t) * pa + t * pb
        mean += w * pf(pt[:, 0], pt[:, 1], side)
    return mean

