"""Data regularization: mollification, truncation, positive shift, bounds.

Fields are callables mapping (n, 2) point arrays to (n,) values, sampled
through fespace.eval_field.  The mollifier is the standard compactly
supported bump exp(-1/(1-|z/r|^2)), normalized to unit mass numerically,
evaluated by a fixed polar quadrature over its support; near the boundary
the field is extended by its nearest-boundary value so bounds are
preserved by construction.
"""

import json

import numpy as np
from scipy.special import roots_legendre

from .fespace import eval_field
from .geometry import nearest_boundary_point


class DataBounds:
    """Empirical bounds of the data f (and optionally its mollification)."""

    def __init__(self, c0, c1, c2=None, c3=None, degenerate=False):
        if not (0.0 <= c0 <= c1):
            raise ValueError("bounds must satisfy 0 <= c0 <= c1")
        if c2 is not None and not (0.0 < c2 <= c3):
            raise ValueError("mollified bounds must satisfy 0 < c2 <= c3")
        self.c0 = float(c0)
        self.c1 = float(c1)
        self.c2 = None if c2 is None else float(c2)
        self.c3 = None if c3 is None else float(c3)
        self.degenerate = bool(degenerate)

    def to_dict(self):
        return {"c0": self.c0, "c1": self.c1, "c2": self.c2, "c3": self.c3,
                "degenerate": self.degenerate}

    def __repr__(self):
        return "DataBounds(c0={:.3e}, c1={:.3e}, degenerate={})".format(
            self.c0, self.c1, self.degenerate)


def _bump_quadrature(radius, n_radial=10, n_angular=20):
    """Nodes and unit-mass weights for the bump kernel on |z| < radius."""
    x, w = roots_legendre(n_radial)
    rho = 0.5 * (x + 1.0)
    w_rho = 0.5 * w
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    w_theta = 2.0 * np.pi / n_angular
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


def mollify(field, radius, polygon=None):
    """Convolve field with the normalized bump of the given radius.

    Returns a new field; constants are preserved exactly (the discrete
    kernel has unit mass) and sampled values stay inside [inf f, sup f].
    With a polygon the field is first extended past the boundary by its
    nearest-boundary value, so the convolution is well defined on all of
    the closed domain.
    """
    if radius <= 0:
        raise ValueError("mollification radius must be positive")
    offsets, weights = _bump_quadrature(radius)
    base = field if polygon is None else extend_by_boundary_value(field, polygon)

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


def _radical_inverse(index, base):
    """Van der Corput points of the integers index in the given base.

    Digits are added from the least significant one, in the order of
    scipy.stats.qmc's unscrambled sequence, so the points are the same.
    """
    out = np.zeros(len(index))
    q = np.array(index, dtype=np.int64)
    b2r = 1.0 / base
    while np.any(q > 0):
        out += (q % base) * b2r
        b2r /= base
        q //= base
    return out


def interior_samples(polygon, n_samples, seed=0):
    """Quasi-random (Halton, bases 2 and 3) interior sample points.

    The unscrambled sequence does not depend on seed.
    """
    lo = polygon.vertices.min(axis=0)
    hi = polygon.vertices.max(axis=0)
    pts = np.empty((0, 2))
    n_draw, start = max(64, 2 * n_samples), 0
    while len(pts) < n_samples:
        index = np.arange(start, start + n_draw)
        start += n_draw
        unit = np.column_stack([_radical_inverse(index, 2),
                                _radical_inverse(index, 3)])
        draw = lo + (hi - lo) * unit
        keep = draw[polygon.contains(draw)]
        pts = np.vstack([pts, keep])
    return pts[:n_samples]


def validate_bounds(f, polygon, n_samples=400):
    """Empirical data bounds over quasi-random interior samples."""
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    vals = eval_field(f, interior_samples(polygon, n_samples))
    c0 = float(max(vals.min(), 0.0))
    c1 = float(vals.max())
    return DataBounds(c0, c1, degenerate=vals.min() < 1e-12)


class RegularizedData:
    """Pipeline record: truncation, mollification and shift applied to data."""

    def __init__(self, f, g, polygon, radius=None, truncate_M=None,
                 shift_eps=None, n_samples=400):
        self.polygon = polygon
        self.radius = radius
        self.operations = []
        fm = f
        if truncate_M is not None:
            fm = truncate(fm, truncate_M)
            self.operations.append({"op": "truncate", "M": float(truncate_M)})
        gm = g
        if radius is not None:
            fm = mollify(fm, radius, polygon)
            gm = mollify(gm, radius, polygon)
            self.operations.append({"op": "mollify", "radius": float(radius)})
        if shift_eps is not None:
            fm = shift(fm, shift_eps)
            self.operations.append({"op": "shift", "eps": float(shift_eps)})
        self.f_m = fm
        self.g_m = gm
        raw = validate_bounds(f, polygon, n_samples)
        reg = validate_bounds(fm, polygon, n_samples)
        self.bounds = DataBounds(raw.c0, raw.c1,
                                 c2=max(reg.c0, np.finfo(float).tiny),
                                 c3=max(reg.c1, np.finfo(float).tiny),
                                 degenerate=raw.degenerate)

    def check(self, n_samples=400):
        """Invariant: sampled min of f_m >= c2 - 1e-12."""
        vals = eval_field(self.f_m, interior_samples(self.polygon, n_samples))
        return float(vals.min()) >= self.bounds.c2 - 1e-12

    def to_dict(self):
        return {"radius": self.radius, "operations": self.operations,
                "bounds": self.bounds.to_dict()}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)
