"""Built-in Dirichlet problems for det D2u = f with exact solutions.

Each catalogue entry bundles the domain, the density f, the boundary data
g, exact fields when known (for manufactured convergence studies), the FE
degree, mesh levels and the regularization plan needed to reach the data
(shift schedules for degenerate f, truncation schedules for unbounded f,
an envelope boundary replacement for nonconvex traces).
"""

import json
import os

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import ConvexPolygon
from .mesh import interior_subdomain, unit_square
from .regularize import RegularizedData
from .solver import SolverConfig

COMPACT_FRACTION = 0.2  # share of the inradius, see Problem.interior_compact


class Problem:
    """A Dirichlet problem instance plus its solve/measure plan."""

    def __init__(self, name, polygon, f, g, exact=None, exact_grad=None,
                 exact_hess=None, degree=2, levels=(2, 3, 4, 5),
                 epsilon_schedule=(0.0,), truncate_schedule=(),
                 mollify_radius=None, solve_boundary=None):
        self.name = name
        self.polygon = polygon
        self.f = f
        self.g = g
        self.exact = exact
        self.exact_grad = exact_grad
        self.exact_hess = exact_hess
        self.degree = int(degree)
        self.levels = tuple(int(l) for l in levels)
        self.epsilon_schedule = tuple(float(e) for e in epsilon_schedule)
        self.truncate_schedule = tuple(float(m) for m in truncate_schedule)
        self.mollify_radius = mollify_radius
        # data actually imposed at boundary nodes; differs from g only for
        # nonconvex traces, which no convex function can attain
        self.solve_boundary = solve_boundary if solve_boundary is not None \
            else g
        if self.degree < 2:
            raise ValueError("degree must be at least 2")
        if not self.levels or min(self.levels) < 0:
            raise ValueError("need at least one mesh level, none negative")
        # rejects a negative shift or a truncation level M <= 0 when the
        # problem is read, before any solve
        SolverConfig(continuation_schedule=self.epsilon_schedule)
        if not all(m > 0 for m in self.truncate_schedule):
            raise ValueError("truncation level M must be positive, got {}"
                             .format(list(self.truncate_schedule)))

    def interior_compact(self):
        """Fixed compact for interior sup-norm errors, set by the inradius."""
        return interior_subdomain(self.polygon,
                                  COMPACT_FRACTION * self.polygon.inradius())

    def regularized(self, truncate_M=None):
        """f truncated at M (when given) and mollified with the problem's
        radius (when set); the shift is applied by the solver through the
        epsilon schedule."""
        return RegularizedData(self.f, self.polygon,
                               radius=self.mollify_radius,
                               truncate_M=truncate_M)

    def to_dict(self):
        return {
            "name": self.name,
            "polygon": self.polygon.vertices.tolist(),
            "degree": self.degree,
            "levels": list(self.levels),
            "epsilon_schedule": list(self.epsilon_schedule),
            "truncate_schedule": list(self.truncate_schedule),
            "mollify_radius": self.mollify_radius,
            "has_exact": self.exact is not None,
        }


def _radial2(p):
    p = np.asarray(p, dtype=float)
    return p[..., 0] ** 2 + p[..., 1] ** 2


def smooth_exponential():
    """u = exp((x^2+y^2)/2): smooth, strictly convex, f bounded positive."""
    def u(p):
        return np.exp(0.5 * _radial2(p))

    def f(p):
        r2 = _radial2(p)
        return (1.0 + r2) * np.exp(r2)

    def grad(p):
        p = np.asarray(p, dtype=float)
        return p * u(p)[..., None]

    def hess(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        e = u(p)
        return np.stack([(1.0 + x * x) * e, x * y * e, (1.0 + y * y) * e],
                        axis=-1)

    return Problem("smooth_exponential", unit_square(), f, u, exact=u,
                   exact_grad=grad, exact_hess=hess)


def singular_corner():
    """u = -sqrt(2-x^2-y^2): f unbounded at the corner (1,1).

    Solved through hard truncation of f with an increasing cutoff
    schedule; each stage carries a small shift because the truncated
    density vanishes where it was cut.
    """
    def u(p):
        return -np.sqrt(np.maximum(2.0 - _radial2(p), 0.0))

    def f(p):
        return 2.0 / np.maximum(2.0 - _radial2(p), 1e-300) ** 2

    def grad(p):
        p = np.asarray(p, dtype=float)
        s = np.sqrt(np.maximum(2.0 - _radial2(p), 1e-300))
        return p / s[..., None]

    def hess(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        s = np.maximum(2.0 - _radial2(p), 1e-300)
        r = 1.0 / np.sqrt(s)
        return np.stack([r + x * x * r / s, x * y * r / s,
                         r + y * y * r / s], axis=-1)

    return Problem("singular_corner", unit_square(), f, u, exact=u,
                   exact_grad=grad, exact_hess=hess,
                   truncate_schedule=(10.0, 40.0, 160.0),
                   epsilon_schedule=(0.25, 1.0 / 16, 1.0 / 64))


def degenerate_core():
    """u = max(0, |x-c|-0.2)^2: f vanishes on a central disc, u not C2.

    Solved by the shift continuation f + eps with a decreasing schedule;
    the final stage keeps a small positive shift since the exactly
    degenerate problem has no positive lower bound.
    """
    c = np.array([0.5, 0.5])

    def rho(p):
        p = np.asarray(p, dtype=float)
        return np.sqrt((p[..., 0] - c[0]) ** 2 + (p[..., 1] - c[1]) ** 2)

    def u(p):
        return np.maximum(rho(p) - 0.2, 0.0) ** 2

    def f(p):
        r = rho(p)
        return np.where(r > 0.2, 4.0 * (1.0 - 0.2 / np.maximum(r, 1e-300)),
                        0.0)

    def grad(p):
        p = np.asarray(p, dtype=float)
        r = np.maximum(rho(p), 1e-300)
        fac = 2.0 * np.maximum(r - 0.2, 0.0) / r
        return fac[..., None] * (p - c)

    def hess(p):
        # radial curvature 2, tangential 2*(1 - 0.2/r) outside the disc
        p = np.asarray(p, dtype=float)
        r = np.maximum(rho(p), 1e-300)
        nx = (p[..., 0] - c[0]) / r
        ny = (p[..., 1] - c[1]) / r
        out = np.where(rho(p) > 0.2, 1.0, 0.0)
        t = 2.0 * (1.0 - 0.2 / r) * out
        rr = 2.0 * out
        return np.stack([rr * nx * nx + t * ny * ny,
                         (rr - t) * nx * ny,
                         rr * ny * ny + t * nx * nx], axis=-1)

    return Problem("degenerate_core", unit_square(), f, u, exact=u,
                   exact_grad=grad, exact_hess=hess,
                   epsilon_schedule=(1.0, 0.25, 1.0 / 16, 1.0 / 64))


def envelope_saddle():
    """f = 0 with the nonconvex trace (x-1/2)^2 - (y-1/2)^2.

    No convex function attains this boundary data; the continuum limit is
    the convex envelope of the data, here (x-1/2)^2 - 1/4.  The solve
    therefore imposes the envelope's own trace (zero on the vertical
    edges) and runs the shift continuation down to a small positive
    density; errors are measured against the envelope on an interior
    compact.
    """
    def g(p):
        p = np.asarray(p, dtype=float)
        return (p[..., 0] - 0.5) ** 2 - (p[..., 1] - 0.5) ** 2

    def u(p):
        p = np.asarray(p, dtype=float)
        return (p[..., 0] - 0.5) ** 2 - 0.25

    def grad(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape)
        out[..., 0] = 2.0 * (p[..., 0] - 0.5)
        return out

    def hess(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (3,))
        out[..., 0] = 2.0
        return out

    def f(p):
        return np.zeros(np.asarray(p, dtype=float).shape[:-1])

    return Problem("envelope_saddle", unit_square(), f, g, exact=u,
                   exact_grad=grad, exact_hess=hess,
                   epsilon_schedule=(1.0, 0.25, 1.0 / 16, 1.0 / 64,
                                     1.0 / 256, 1.0 / 1024),
                   solve_boundary=u)


CATALOGUE = {
    "smooth": smooth_exponential,
    "singular": singular_corner,
    "degenerate": degenerate_core,
    "envelope": envelope_saddle,
}


def problems_dir():
    """Directory of the shipped example problem JSON files."""
    return os.path.join(os.path.dirname(__file__), "data", "problems")


def get_problem(name):
    """Catalogue lookup by short name."""
    try:
        return CATALOGUE[name]()
    except KeyError:
        raise ValueError("unknown problem {!r}; catalogue has {}".format(
            name, sorted(CATALOGUE)))


_SHAPES = ("a finite {}", "a list of finite {}s", "a 2D array of finite {}s")


def _numeric(value, key, ndim, integer=False):
    """value as an array of rank ndim holding only finite numbers.

    Anything else (null, booleans, strings, objects, ragged lists, an
    empty 2D array) raises ValueError naming the key.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if (arr.ndim != ndim or arr.dtype.kind not in ("iu" if integer else "iuf")
            or not np.all(np.isfinite(arr)) or ndim == 2 and not arr.size):
        kind = _SHAPES[ndim].format("integer" if integer else "number")
        raise ValueError("{!r} must be {}, got {!r}".format(key, kind, value))
    return arr


def _reject_unknown_keys(obj, known, where):
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError("unknown key {!r} in {}; known keys: {}".format(
            unknown[0], where, ", ".join(known)))


def _poly_field(c):
    """The polynomial sum c[i][j] x^i y^j of a 2D coefficient array."""
    def field(p):
        p = np.asarray(p, dtype=float)
        return npoly.polyval2d(p[..., 0], p[..., 1], c)
    return field


def _poly_exact(c):
    cx = npoly.polyder(c, axis=0)
    cy = npoly.polyder(c, axis=1)
    cxx = npoly.polyder(cx, axis=0)
    cxy = npoly.polyder(cx, axis=1)
    cyy = npoly.polyder(cy, axis=1)

    def grad(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return np.stack([npoly.polyval2d(x, y, cx),
                         npoly.polyval2d(x, y, cy)], axis=-1)

    def hess(p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return np.stack([npoly.polyval2d(x, y, cxx),
                         npoly.polyval2d(x, y, cxy),
                         npoly.polyval2d(x, y, cyy)], axis=-1)

    return _poly_field(c), grad, hess


NAMED_FIELDS = {
    "zero": lambda p: np.zeros(np.asarray(p, dtype=float).shape[:-1]),
    "one": lambda p: np.ones(np.asarray(p, dtype=float).shape[:-1]),
}
for _name, _builder in CATALOGUE.items():
    _prob = _builder()
    NAMED_FIELDS[_name + "_f"] = _prob.f
    NAMED_FIELDS[_name + "_g"] = _prob.g
    if _prob.exact is not None:
        NAMED_FIELDS[_name + "_exact"] = _prob.exact
del _name, _builder, _prob


def _field_from_spec(spec, registry_exact=False):
    """Field from {"name": ...} or {"poly": [[...]]} JSON fragments."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ValueError('field spec must be {"name": ...} or {"poly": ...}')
    if "name" in spec:
        name = spec["name"]
        if not isinstance(name, str) or name not in NAMED_FIELDS:
            raise ValueError("unknown field name {!r}; known: {}".format(
                name, sorted(NAMED_FIELDS)))
        if registry_exact:
            base = name[:-len("_exact")] if name.endswith("_exact") else None
            if base in CATALOGUE:
                prob = CATALOGUE[base]()
                return prob.exact, prob.exact_grad, prob.exact_hess
            return NAMED_FIELDS[name], None, None
        return NAMED_FIELDS[name]
    if "poly" in spec:
        # c[i][j] multiplies x^i y^j
        c = _numeric(spec["poly"], "poly", 2).astype(float)
        return _poly_exact(c) if registry_exact else _poly_field(c)
    raise ValueError('field spec must be {"name": ...} or {"poly": ...}')


def problem_from_json(source):
    """Problem from a JSON file path, JSON string, or parsed dict.

    Schema: {"polygon": [[x,y],...], "f": {"name"|"poly": ...},
    "g": {...}, "exact": optional {...}, "k": int, "levels": int or list,
    "regularization": {"epsilon_schedule": [...], "truncate_schedule":
    [...], "mollify_radius": ...}}.  An integer "levels" n means the n
    uniform refinement levels 2, 3, ..., n+1.  Any other key, at the top
    level or in "regularization", raises ValueError naming it.
    """
    obj, name = source, "custom"
    if not isinstance(source, dict):
        text = str(source)
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
        else:
            with open(text) as fh:
                obj, name = json.load(fh), text
    if not isinstance(obj, dict):
        raise ValueError("a problem must be a JSON object")
    _reject_unknown_keys(obj, ("name", "polygon", "f", "g", "exact",
                               "solve_boundary", "k", "levels",
                               "regularization"), "the problem")
    name = obj.get("name", name)
    if not isinstance(name, str):
        raise ValueError("'name' must be a string, got {!r}".format(name))
    try:
        polygon = ConvexPolygon(_numeric(obj["polygon"], "polygon", 2))
        f = _field_from_spec(obj["f"])
        g = _field_from_spec(obj["g"])
    except KeyError as exc:
        raise ValueError("problem file is missing field {}".format(exc))
    exact = exact_grad = exact_hess = None
    if "exact" in obj:
        exact, exact_grad, exact_hess = _field_from_spec(
            obj["exact"], registry_exact=True)
    levels = obj.get("levels", 4)
    if isinstance(levels, (list, tuple)):
        levels = _numeric(levels, "levels", 1, integer=True)
    else:
        levels = range(2, 2 + int(_numeric(levels, "levels", 0,
                                           integer=True)))
    reg = obj.get("regularization", {})
    if not isinstance(reg, dict):
        raise ValueError("'regularization' must be an object, got {!r}".format(
            reg))
    _reject_unknown_keys(reg, ("epsilon_schedule", "truncate_schedule",
                               "mollify_radius"), "'regularization'")
    radius = reg.get("mollify_radius")
    solve_boundary = None
    if "solve_boundary" in obj:
        solve_boundary = _field_from_spec(obj["solve_boundary"])
    return Problem(name, polygon, f, g, exact=exact, exact_grad=exact_grad,
                   exact_hess=exact_hess,
                   degree=_numeric(obj.get("k", 2), "k", 0, integer=True),
                   levels=levels,
                   epsilon_schedule=_numeric(
                       reg.get("epsilon_schedule", (0.0,)),
                       "epsilon_schedule", 1),
                   truncate_schedule=_numeric(
                       reg.get("truncate_schedule", ()),
                       "truncate_schedule", 1),
                   mollify_radius=None if radius is None else float(
                       _numeric(radius, "mollify_radius", 0)),
                   solve_boundary=solve_boundary)
