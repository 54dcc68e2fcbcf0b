"""Data regularization: mollification, truncation and positive shift.

Fields are callables mapping (n, 2) point arrays to (n,) values, sampled
through fespace.eval_field.  The mollifier is the standard compactly
supported bump exp(-1/(1-|z/r|^2)), normalized to unit mass numerically,
evaluated by a fixed polar quadrature over its support; near the boundary
the field is extended by its nearest-boundary value so the mollified
values stay inside [inf f, sup f] by construction.  Problem.regularized
chains truncation and mollification; the positive shift is applied by the
solver, through the shift schedule of a solve, and the solver also rejects
negative data.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import nearest_boundary_point

BUMP_RADIAL, BUMP_ANGULAR = 10, 20  # nodes of the mollifier's polar rule


def _bump_quadrature(radius):
    """Nodes and unit-mass weights for the bump kernel on |z| < radius."""
    x, w = leggauss(BUMP_RADIAL)
    rho = 0.5 * (x + 1.0)
    w_rho = 0.5 * w
    theta = 2.0 * np.pi * np.arange(BUMP_ANGULAR) / BUMP_ANGULAR
    w_theta = 2.0 * np.pi / BUMP_ANGULAR
    R, T = np.meshgrid(rho, theta, indexing="ij")
    kern = np.exp(-1.0 / (1.0 - R ** 2))
    wts = (kern * R * w_rho[:, None] * w_theta).ravel()
    pts = radius * np.column_stack([(R * np.cos(T)).ravel(),
                                    (R * np.sin(T)).ravel()])
    return pts, wts / wts.sum()


def extend_by_boundary_value(field, polygon):
    """Evaluate field inside polygon, nearest-boundary value outside."""
    def extended(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        inside = polygon.contains(points)
        out = np.empty(len(points))
        if inside.any():
            out[inside] = np.asarray(field(points[inside]), dtype=float)
        if (~inside).any():
            proj = nearest_boundary_point(polygon, points[~inside])
            out[~inside] = np.asarray(field(proj), dtype=float)
        return out
    return extended


def mollify(field, radius, polygon):
    """Convolve field with the normalized bump of the given radius.

    Returns a new field; constants are preserved exactly (the discrete
    kernel has unit mass) and sampled values stay inside [inf f, sup f].
    The field is first extended past the polygon's boundary by its
    nearest-boundary value, so the convolution is well defined on all of
    the closed domain.
    """
    if radius <= 0:
        raise ValueError("mollification radius must be positive")
    offsets, weights = _bump_quadrature(radius)
    base = extend_by_boundary_value(field, polygon)

    def mollified(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shifted = points[:, None, :] - offsets[None, :, :]
        vals = np.asarray(base(shifted.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(len(points), len(weights))
        return vals @ weights

    return mollified


def truncate(f, M):
    """Pointwise f(x) where f(x) <= M, else 0 (hard cutoff to zero)."""
    if M <= 0:
        raise ValueError("truncation level M must be positive")

    def truncated(points):
        vals = np.asarray(f(np.atleast_2d(points)), dtype=float)
        return np.where(vals <= M, vals, 0.0)

    return truncated


def shift(f, eps):
    """Pointwise f + eps."""
    if eps <= 0:
        raise ValueError("shift eps must be positive")

    def shifted(points):
        return np.asarray(f(np.atleast_2d(points)), dtype=float) + eps

    return shifted
