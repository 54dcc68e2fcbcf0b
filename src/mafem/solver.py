"""Nonlinear solvers for the discrete determinant equation.

Two drivers share one problem setup (boundary data pinned at Lagrange
nodes, unknowns numbered by FeSpace.interior_index on one given space):

* newton_solve: damped Gauss-Newton, switching to Newton (see below), on
  the penalized least-squares objective
  Phi(c) = 1/2 ||r(c)||^2 + eta/2 * |u|_J^2, where |u|_J is the
  gradient-jump seminorm across interior edges.  The cofactor Jacobian is
  structurally rank deficient (its null directions are fields whose
  cellwise Hessian contraction vanishes while normal-derivative jumps move
  freely), so the plain discrete problem has manifolds of quasi-solutions;
  the jump penalty selects the one closest to gradient continuity and
  makes the Gauss-Newton normal matrix positive definite.  For data with
  an exact discrete solution whose gradient is continuous (e.g. quadratic
  patches) the penalized minimizer is that exact solution.  The objective
  has no convexity constraint, as the standard discretization has none:
  a solve returns a penalized least-squares stationary point, and its
  report's min_lambda1, the smallest Hessian eigenvalue of the returned
  iterate, says on which branch (the determinant alone cannot tell a
  convex iterate from a concave one).  study.solve_problem certifies
  convexity once, on the iterate that ends its whole path.
* continuation_solve: the one loop over the regularization path:
  truncations of degenerate or unbounded f, each swept over decreasing
  shifts f + eps, every stage warm-started, from the secant through the
  two stages before it on the same field when there are two; the first
  stage that does not converge ends it.

A caller sets only the shift schedule of continuation_solve
(SolverConfig).  Every other setting is a module constant, read when a
solve runs, so that a test can monkeypatch it:

* MAX_ITERS = 120, the directions one newton_solve takes before it gives
  up.
* JUMP_PENALTY = 1e-2, the weight eta of |u|_J^2.  It makes the normal
  matrix definite; the bias it puts on the minimizer grows with it and
  sets the error floor of the convergence studies.
* TOL_DECREASE = 1e-10, the decrease -grad . d a direction predicts
  relative to Phi (the Newton decrement test of Dennis & Schnabel,
  Numerical Methods for Unconstrained Optimization, sec. 7.2): a
  direction below it, plus the rounding floor of grad . d, ends a solve
  (see newton_solve).
* ARMIJO = 1e-4, the usual sufficient-decrease constant (Nocedal & Wright,
  Numerical Optimization, sec. 3.1), and MIN_STEP = 2^-20, the shortest
  step tried; a line search that falls below it raises "stagnation".

Gauss-Newton leaves out the second-order term T = sum_i r_i D2r_i of the
Hessian of 1/2 ||r||^2.  Where no exact discrete solution exists the
residual does not vanish at the minimizer, T does not either, and
Gauss-Newton converges only linearly (hundreds of iterations on
non-smooth Aleksandrov solutions).  det D2u is quadratic in the
coefficients, so T is exact and cheap (assembly.second_order_data).  The
switch follows Fletcher & Xu (IMA J. Numer. Anal. 7, 1987; Dennis &
Schnabel, ch. 10): the first direction of a solve, and every direction
after a damped step, is Gauss-Newton.  After an accepted full step the
iteration tries the Newton matrix J^T J + T + eta Q_II.  It keeps that
direction only if the factorization succeeds (the matrix is positive
definite), the step is finite and it descends (grad . d < 0); otherwise,
in the same iteration, it counts a Newton rejection and takes the
Gauss-Newton direction.  The report counts newton_directions,
gauss_newton_directions (they sum to iterations), newton_rejections,
refined_exits, declined_exits and floor_exits (see newton_solve).

A Newton direction that ends the solve needs no factorization of its own.
A factor outlives its direction only after a Newton direction (a
Gauss-Newton direction drops its own): after a full Newton step it still
stands, since nothing was loaded after it, and its solve of the new
Newton system is the first try (_refined_exit).  When that lagged
direction passes the exit test, it is refined against the Newton matrix
on the same factor and, if the refinement converges and the result is
finite, descends and still passes the test, ends the solve as a refined
exit, a Newton direction counted in refined_exits.  Otherwise, after one
back-solve or a failed refinement, the direction is loaded and factored
as above, and declined_exits counts the attempt, at most one per fresh
Newton direction.  Every direction that does not end the solve is thus a
fresh factor's: refining every Newton direction on a lagged factor saved
factorizations but was slower on two of the three benchmark workloads.

The Gauss-Newton normal matrix J^T J + eta Q_II, definite through the
jump penalty, and the interior Poisson stiffness matrix are symmetric
positive definite; the Newton matrix is symmetric but can be indefinite
away from a minimizer.  All of them are factored by one routine,
_factor_spd: LAPACK's banded Cholesky (dpbtrf) on a reverse Cuthill-McKee
order, the band method of George & Liu (Computer Solution of Large Sparse
Positive Definite Systems, 1981, ch. 4), in the space's one band
workspace (_SpaceBand), loaded through maps computed once.  Every term
reaches it as (nnz,) data on P, the element layer's interior pattern
(assembly.jacobian_data, second_order_data, the Poisson stiffness); other
data raises ValueError.  The gradient J^T r + eta (Q u)_I is one
np.bincount and the csr product Q u: after its setup a solve, its Poisson
start included, builds no sparse matrix.  A matrix that is not positive
definite has a non-positive pivot and is rejected.

newton_solve samples f at the quadrature points once, for the positivity
check, the Poisson start and every residual of the solve; the residual,
the Jacobian and the jump values run on tables built once per space (see
assembly.element_layer and assembly.gradient_jump_seminorm).  The cell
Hessians of each iterate are evaluated once, by the objective, and shared
by its residual, by the direction taken from it and, for the final
iterate, by the report's min_lambda1.  Phi's jump term is evaluated from
the jump values, not as c.Qc: the quadratic form cancels to about 1e-16
absolute, which would hide the decrease of a full step once the residual
is below about 1e-8.  A solve factors only to take a direction, and a
factor lives only until the next matrix is loaded, so a solve factors
exactly report.iterations + report.newton_rejections -
report.refined_exits times (plus once for a Poisson start).
"""

import time
from itertools import product

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import convexity
from .assembly import (apply_boundary, element_layer, f_at_qpts,
                       gradient_jump_matrix, gradient_jump_seminorm,
                       jacobian_data, load_vector, residual,
                       second_order_data, stiffness_blocks)
from .errors import NonConvergenceError, SingularJacobianError
from .fespace import FeFunction

MAX_ITERS = 120
JUMP_PENALTY = 1e-2
TOL_DECREASE = 1e-10
ARMIJO = 1e-4
MIN_STEP = 2.0 ** -20


class SolverConfig:
    """The non-increasing finite shifts eps >= 0 of continuation_solve."""

    def __init__(self, continuation_schedule=()):
        self.continuation_schedule = tuple(continuation_schedule)
        eps = self.continuation_schedule
        if not all(0 <= e < np.inf for e in eps) or any(
                b > a for a, b in zip(eps, eps[1:])):
            raise ValueError("continuation shifts must be >= 0 and finite "
                             "and must not increase, got {}".format(list(eps)))


class SolveReport:
    """Iteration history and outcome of one solve."""

    def __init__(self, method):
        # in the order of to_dict's keys
        self.method = method
        self.iterations = 0
        self.newton_directions = 0
        self.gauss_newton_directions = 0
        self.newton_rejections = 0
        self.refined_exits = 0
        self.declined_exits = 0
        self.floor_exits = 0
        self.converged = False
        self.status = "running"
        self.residual_history = []
        self.residual_history_sup = []
        self.step_history = []
        self.min_lambda1 = None
        self.wall_time = 0.0
        self.stages = []
        self.convexity = None  # the path's certificate, see solve_problem

    def record(self, r, step_sup=None):
        """Append the 2- and sup norms of the residual r (and a step size)."""
        self.residual_history.append(float(np.linalg.norm(r)))
        self.residual_history_sup.append(_sup(r))
        if step_sup is not None:
            self.step_history.append(float(step_sup))

    def finish(self, status, converged, min_lambda1, t0):
        self.status = status
        self.converged = bool(converged)
        self.wall_time = time.perf_counter() - t0
        self.min_lambda1 = min_lambda1
        return self

    def to_dict(self):
        """Every attribute, each list copied."""
        return {key: list(value) if isinstance(value, list) else value
                for key, value in vars(self).items()}

    def __repr__(self):
        return ("SolveReport(method={!r}, iterations={}, converged={}, "
                "status={!r})".format(self.method, self.iterations,
                                      self.converged, self.status))


def _sup(v):
    """Sup norm of a vector, 0 for an empty one."""
    return float(np.max(np.abs(v), initial=0.0))


class _SpaceBand:
    """The band workspace of a space, loaded by np.bincount through maps.

    Built once from the space's pattern U = P^T P, which holds every matrix
    it will be loaded with (J, T and the Poisson matrix lie on P;
    Q_II on P^T P, as the two cells of an interior edge share an interior
    dof on that edge): perm is U's reverse Cuthill-McKee order, width
    the largest distance of an entry of U from the diagonal on that order,
    ab the Fortran-ordered (width + 1, n) workspace in LAPACK's lower band
    storage, ab[i - j, j] = A[perm][:, perm][i, j] for i >= j, and upos the
    places of U's lower entries in ab.T.ravel().  A slot indexes upos.
    jump holds Q_II's lower values and jump_slot their slots, p_slot the
    slots of P's entries (len(upos), a dump, for an upper one), and groups,
    per chunk of at most 2^17 pairs, the data indices of rows of P of one
    length L (each by rank), tril_indices(L) and the pairs' slots.
    load_maps zero-fills ab and adds its terms; _factor_spd factors ab in
    place, so a factor lives only until the next load.
    """

    def __init__(self, space):
        el = element_layer(space)
        P = el.csr(np.ones(el.nnz))
        U = P @ P  # P is symmetric
        # scipy's ordering fails on an empty graph (a space with no interior
        # dof)
        self.perm = (reverse_cuthill_mckee(U, symmetric_mode=True)
                     if el.n else np.arange(0, dtype=np.int32))
        # the inverse order, in perm's int32: int64 indices cost 6 MB of
        # peak memory on a level-5 study
        self.rank = np.empty_like(self.perm)
        self.rank[self.perm] = np.arange(el.n, dtype=self.perm.dtype)
        rows = np.repeat(self.rank, np.diff(U.indptr))
        cols = self.rank[U.indices]
        self.width = int(np.max(rows - cols, initial=0))
        if (self.width + 1) * el.n > np.iinfo(self.rank.dtype).max:
            self.rank = self.rank.astype(np.int64)  # so positions fit
            rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        self.ab = np.zeros((self.width + 1, el.n), order="F")
        self.loads = 0
        self.upos = self._lower(rows, cols, U.data)[0]
        I = space.interior_dofs
        jump_pos, self.jump = self.place(gradient_jump_matrix(space)[I][:, I])
        look = self.ab.T.reshape(-1).view(np.int32)  # ab is free until loaded
        look[self.upos] = np.arange(1, len(self.upos) + 1)

        def slots(pos):
            found = look[pos]
            if found.min(initial=1) < 1:
                raise ValueError("a map entry is not on the band pattern")
            return np.subtract(found, 1, dtype=np.int32)

        self.jump_slot = slots(jump_pos)
        rows, cols = self.rank[el.rows], self.rank[el.indices]
        self.p_slot = np.full(el.nnz, len(self.upos), dtype=np.int32)
        self.p_slot[rows >= cols] = slots(self._lower(rows, cols, P.data)[0])
        lengths = np.diff(el.indptr)
        self.groups = []
        for L in np.unique(lengths):
            idx = el.indptr[:-1][lengths == L, None] + np.arange(L)
            # each row by rank, so that a pair s >= t is a lower entry
            idx = np.take_along_axis(idx, np.argsort(cols[idx]), 1)
            s, t = np.tril_indices(L)
            step = max(1, 2 ** 17 // len(s))
            for k in range(0, len(idx), step):
                c = cols[idx[k:k + step]]
                self.groups.append((idx[k:k + step].astype(np.int32), s, t,
                                    slots(c[:, s] + c[:, t] * self.width)))

    def place(self, A):
        """Positions in ab.T.ravel() and values of the lower entries of a
        symmetric csr matrix A, each by its own row and column.  Raises
        ValueError for an entry outside the band, in either triangle: it is
        never dropped."""
        return self._lower(np.repeat(self.rank, np.diff(A.indptr)),
                           self.rank[A.indices], A.data)

    def _lower(self, i, j, data):
        # place on the ranks i, j of each entry's row and column
        d = i - j
        reach = np.abs(d).max(initial=0)
        if reach > self.width:
            raise ValueError("matrix has an entry {} places off the "
                             "diagonal, outside the band of width {}".format(
                                 reach, self.width))
        lower = d >= 0
        return (d + j * (self.width + 1))[lower], data[lower]

    def load_maps(self, eta=0.0, jac=None, on_p=None):
        """Zero-fill ab and load eta Q_II + J^T J + A, jac and on_p (each
        or None) the data on P of J and of the symmetric A; returns self.
        ValueError, naming the term, for data of any other shape than P's
        (nnz,): it is never broadcast."""
        _require_on_p(self.p_slot.shape, jac, on_p)
        acc = np.zeros(len(self.upos) + 1)
        acc[self.jump_slot] = eta * self.jump  # one entry per slot
        for idx, s, t, slot in self.groups if jac is not None else ():
            prod = jac[idx][:, s]
            prod *= jac[idx][:, t]
            acc += np.bincount(slot.ravel(), prod.ravel(), minlength=acc.size)
        if on_p is not None:
            acc += np.bincount(self.p_slot, on_p, minlength=acc.size)
        self.ab.fill(0.0)
        self.loads += 1
        self.ab.T.reshape(-1)[self.upos] = acc[:-1]
        return self


def _require_on_p(shape, jac, on_p):
    """ValueError, naming the term, unless jac and on_p (each or None)
    have P's shape (nnz,): such data is never broadcast."""
    for name, data in (("jac", jac), ("on_p", on_p)):
        if data is not None and np.shape(data) != shape:
            raise ValueError("{} has shape {}, not that of the interior "
                             "pattern P".format(name, np.shape(data)))


def _space_band(space):
    """The space's cached _SpaceBand; built on first use."""
    if space._band is None:
        space._band = _SpaceBand(space)
    return space._band


class _BandCholesky:
    """Cholesky factor of a loaded band, in its workspace: cb[i - j, j] =
    L[i, j] of A[perm][:, perm] = L L^T.  It solves only until the band is
    loaded again."""

    def __init__(self, band, cb):
        self.band = band
        self.cb = cb
        self.loaded = band.loads

    def solve(self, b):
        if self.band.loads != self.loaded:
            raise RuntimeError("the band workspace was loaded again after "
                               "this factorization")
        perm = self.band.perm
        x = np.empty_like(b, dtype=float)
        # LAPACK's dpbtrs, as cho_solve_banded calls it: that wrapper's
        # checks cost half as much again as a level-3 back-solve (55 against
        # 37 us on one x86-64 core), and an exit refinement takes several
        x[perm], info = dpbtrs(self.cb, b[perm], lower=1, overwrite_b=1)
        if info:
            raise ValueError("dpbtrs argument {} is illegal".format(-info))
        return x


def _factor_spd(band):
    """LAPACK's banded Cholesky (dpbtrf) of a loaded _SpaceBand, in place.

    Returns an object whose solve(b) solves A x = b until the band is
    loaded again.  A matrix that is not positive definite has a
    non-positive pivot and raises SingularJacobianError; newton_solve
    catches it for the Newton matrix, as a rejected Newton direction.
    """
    try:
        cb = cholesky_banded(band.ab, overwrite_ab=True, lower=True,
                             check_finite=False)
    except LinAlgError as exc:
        raise SingularJacobianError(
            "symmetric matrix is singular or not positive definite ({}); a "
            "failed Newton matrix falls back to Gauss-Newton and does not "
            "raise, so this is the Poisson matrix or the Gauss-Newton normal "
            "matrix: strictify the iterate or solve by continuation over "
            "f + eps".format(exc)
        ) from exc
    return _BandCholesky(band, cb)


def default_initial_guess(space, f, g):
    """Solve the Poisson problem lap(u0) = 2*sqrt(f), u0 = g at boundary nodes.

    In 2D, det D2u = f is consistent with lap(u) = 2*sqrt(f) when
    D2u = sqrt(f)*I, which makes this the natural data-driven convex start.
    f is a callable or its samples from assembly.f_at_qpts.
    """
    el = element_layer(space)
    A = stiffness_blocks(space)
    b = load_vector(space, -2.0 * np.sqrt(np.maximum(f_at_qpts(space, f),
                                                     0.0)))
    u = FeFunction(space)
    u.coeffs[space.boundary_dofs] = apply_boundary(space, g)
    I = space.interior_dofs
    band = _space_band(space).load_maps(0.0, None, el.sum_blocks(A))
    Au = el.sum_rows(np.einsum("cij,cj->ci", A, u.coeffs[space.cell_dofs]))
    u.coeffs[I] = _factor_spd(band).solve(b[I] - Au)
    return u


def _ends_solve(d, gd, phi, floor):
    """newton_solve's exit test on a direction d with grad . d = gd at an
    iterate of objective value phi, floor the rounding bound dg of grad."""
    return -gd <= TOL_DECREASE * phi + float(np.abs(d) @ floor)


# Iterative refinement of an exit direction on a standing factor: with the
# solve in working precision, it converges to the exact solve's accuracy
# whenever it contracts (Skeel, Math. Comp. 35, 1980).  The stopping rule
# is that of LAPACK's dporfs: at most ITMAX = 5 corrections, each at most
# half the one before, and converged once a correction is below sqrt(eps)
# of the direction, a backward error at rounding level for a direction
# that itself passes the exit test.
_REFINE_STEPS = 5
_REFINE_RTOL = float(np.sqrt(np.finfo(float).eps))


def _newton_product(el, Q, I, eta, jac, on_p):
    """d -> K d for K = eta Q_II + J^T J + A, the matrix
    _SpaceBand.load_maps loads from the same arguments, by the cached csr Q
    over all dofs (I the interior ones) and the data on P of J and A."""
    _require_on_p((el.nnz,), jac, on_p)
    full = np.zeros(Q.shape[0])
    starts = el.indptr[:-1]  # no row of P is empty: it holds its diagonal

    def product(d):
        full[I] = d
        dc = np.take(d, el.indices)
        Kd = np.add.reduceat(on_p * dc, starts)
        Jd = np.add.reduceat(jac * dc, starts)
        Kd += np.bincount(el.indices, jac * np.take(Jd, el.rows),
                          minlength=el.n)
        Kd += eta * (Q @ full)[I]
        return Kd

    return product


def _refined_exit(factor, grad, phi, floor, product):
    """The Newton direction K d = -grad that ends a solve, by iterative
    refinement on the standing factor of the last Newton matrix, or None.

    The factor's solve of -grad is the first correction.  None, after
    that one back-solve, when it fails newton_solve's exit test; None too
    when a correction is not at most half the one before, after
    _REFINE_STEPS corrections, or when the refined d is not finite, does
    not descend or fails the exit test.  floor is grad's rounding bound
    dg, product is d -> K d.
    """
    d = factor.solve(-grad)
    last = _sup(d)
    if not _ends_solve(d, float(grad @ d), phi, floor):
        return None
    for _ in range(_REFINE_STEPS):
        c = factor.solve(-grad - product(d))
        d += c
        size = _sup(c)
        if size <= _REFINE_RTOL * _sup(d):
            gd = float(grad @ d)
            if np.all(np.isfinite(d)) and gd < 0.0 and _ends_solve(
                    d, gd, phi, floor):
                return d
            return None
        if not size <= 0.5 * last:
            return None
        last = size
    return None


def _gradient_floor(el, Q, I, eta, u, r, jac):
    """newton_solve's dg, the rounding bound of each entry of its gradient
    (see there), on all coefficients u and J's data jac on P, whose rows
    are never empty.  Its temporaries, as long as Q's data, are freed
    before the band is loaded."""
    qu = np.take(u, Q.indices)
    qu *= Q.data
    q_rows = np.flatnonzero(np.diff(Q.indptr))  # a row of Q may be empty
    q_sums = np.zeros(Q.shape[0])
    q_sums[q_rows] = np.add.reduceat(np.abs(qu, out=qu), Q.indptr[q_rows])
    aj = np.abs(jac)
    u_i = np.abs(np.take(u, I))
    ar = np.abs(r) + np.add.reduceat(aj * np.take(u_i, el.indices),
                                     el.indptr[:-1])
    return np.finfo(float).eps * (eta * np.take(q_sums, I) + np.bincount(
        el.indices, aj * np.take(ar, el.rows), minlength=el.n))


def _start_on(space, u0):
    """A copy of u0 as a member of space; ValueError when it cannot be."""
    other = u0.space
    if other is not space and not (
            other.degree == space.degree
            and np.array_equal(other.mesh.vertices, space.mesh.vertices)
            and np.array_equal(other.mesh.cells, space.mesh.cells)):
        raise ValueError("u0 lives on {!r} over {!r}, not on the solve's "
                         "space {!r}".format(other, other.mesh, space))
    return FeFunction(space, u0.coeffs.copy())


def newton_solve(space, f, g, u0=None):
    """Damped Gauss-Newton/Newton iteration; returns (u_h, report).

    A solve returns in one place, on a new direction d with gradient
    grad at the iterate, before the line search: when -grad . d <=
    TOL_DECREASE * Phi + |d| . dg (_ends_solve), it takes the whole step
    and returns with status "stationary": the iterate is a penalized
    least-squares critical point, the meaningful notion of discrete
    solution when no exact one exists.  dg = eps_mach (eta (|Q||u|)_I +
    |J|^T (|r| + |J||u_I|)) bounds the rounding of each entry of grad,
    |J||u_I| that of r (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.5; Gill, Murray & Wright, Practical Optimization,
    sec. 8.2.3).  The term |d| . dg ends the solves whose Phi is at
    rounding level, as on an exact discrete solution; report.floor_exits
    counts them.
    The iterate may be non-convex: report.min_lambda1 is its smallest
    sampled Hessian eigenvalue.  Any
    other direction goes to the Armijo search; when that halves the step
    below MIN_STEP, the solve raises NonConvergenceError with status
    "stagnation", whatever the size of d.
    After MAX_ITERS directions it raises NonConvergenceError with status
    "max_iters".  Raises SingularJacobianError if the Gauss-Newton normal
    matrix cannot be factorized (see the module docstring for when a
    Newton direction is tried instead).
    The iterate lives on `space`: u0 is copied onto it, or raises
    ValueError unless it has the same degree, mesh vertices and cells.
    """
    t0 = time.perf_counter()
    report = SolveReport("newton")
    fq = f_at_qpts(space, f)
    if fq.min() <= 0.0:
        raise ValueError(
            "sampled min of f is {:.3e} <= 0; use continuation_solve with a "
            "positive shift schedule for degenerate data".format(fq.min()))

    u = (_start_on(space, u0) if u0 is not None
         else default_initial_guess(space, fq, g))
    u.coeffs[space.boundary_dofs] = apply_boundary(space, g)

    I = space.interior_dofs
    eta = JUMP_PENALTY
    quad = space.default_quadrature()
    Q = gradient_jump_matrix(space)
    band = _space_band(space)
    el = element_layer(space)
    factor = None  # the last direction's, when that was a Newton direction

    def objective(u_h):
        # Phi at u_h, with the residual and the cell Hessians it was built
        # from, for the next direction
        h = u_h.cell_hessians(quad)
        r = residual(u_h, fq, hess=h)
        pen = 0.5 * eta * gradient_jump_seminorm(u_h) ** 2
        return 0.5 * float(r @ r) + pen, r, h

    def direction(u_h, phi, r, h, try_newton):
        # r and h are Phi's residual and cell Hessians at u_h, from
        # objective.  Returns the step, the gradient g = J^T r + eta (Q u)_I
        # of Phi and the rounding bound of each entry of g.  The step is
        # the Newton step when try_newton and the Newton matrix H + T gives
        # a finite descent direction, the Gauss-Newton step on
        # H = eta Q_II + J^T J otherwise.  After a Newton direction, a
        # Newton step that ends the solve is first sought on its standing
        # factor (_refined_exit), with no load or factorization.
        nonlocal factor
        jac = jacobian_data(u_h, hess=h)
        grad = eta * (Q @ u_h.coeffs)[I] + np.bincount(
            el.indices, jac * np.take(r, el.rows), minlength=el.n)
        floor = _gradient_floor(el, Q, I, eta, u_h.coeffs, r, jac)
        if try_newton:
            T = second_order_data(space, r)
            if factor is not None:
                d = _refined_exit(factor, grad, phi, floor,
                                  _newton_product(el, Q, I, eta, jac, T))
                if d is not None:
                    report.newton_directions += 1
                    report.refined_exits += 1
                    return d, grad, floor
                report.declined_exits += 1
            try:
                factor = _factor_spd(band.load_maps(eta, jac, T))
                d = factor.solve(-grad)
                if np.all(np.isfinite(d)) and float(grad @ d) < 0.0:
                    report.newton_directions += 1
                    return d, grad, floor
            except SingularJacobianError:
                pass
            # no factor, no finite step or no descent: H + T is not
            # positive definite, or nearly singular, here
            report.newton_rejections += 1
        report.gauss_newton_directions += 1
        factor = None
        d = _factor_spd(band.load_maps(eta, jac)).solve(-grad)
        if not np.all(np.isfinite(d)):
            raise SingularJacobianError(
                "singular normal matrix produced a non-finite step; "
                "strictify the iterate or solve by continuation over f + eps")
        return d, grad, floor

    def finish(status, converged):
        # min_lambda1 from the Hessians the objective took at u
        lam1 = convexity.eigmin_2x2(h[..., 0], h[..., 1], h[..., 2])
        return report.finish(status, converged, float(lam1.min()), t0)

    def line_search(u_h, phi, d, gd):
        # Armijo backtracking by halving; None once the step falls below
        # MIN_STEP
        step = 1.0
        trial = u_h.copy()
        while step >= MIN_STEP:
            trial.coeffs[I] = u_h.coeffs[I] + step * d
            phi_t, r_t, h_t = objective(trial)
            if phi_t <= phi + ARMIJO * step * gd:
                return step, trial, phi_t, r_t, h_t
            step *= 0.5
        return None

    phi, r, h = objective(u)
    report.record(r)
    full_step = False  # the first direction is Gauss-Newton
    for it in range(MAX_ITERS):
        d, grad, floor = direction(u, phi, r, h, try_newton=full_step)
        report.iterations = it + 1
        gd = float(grad @ d)
        d_sup = _sup(d)
        if _ends_solve(d, gd, phi, floor):
            report.floor_exits = int(-gd > TOL_DECREASE * phi)
            u.coeffs[I] += d
            phi, r, h = objective(u)
            report.record(r, d_sup)
            return u, finish("stationary", True)
        accepted = line_search(u, phi, d, gd)
        if accepted is None:
            finish("stagnation", False)
            raise NonConvergenceError("line search stagnated below MIN_STEP",
                                      last_iterate=u, report=report)
        step, u, phi, r, h = accepted
        full_step = step == 1.0
        report.record(r, step * d_sup)
    finish("max_iters", False)
    raise NonConvergenceError("newton_solve hit max_iters", last_iterate=u,
                              report=report)


def continuation_solve(space, f, g, config=None, u0=None):
    """Warm-started Newton sweep over the regularization path.

    f is a field, its samples, or the truncation path: a list of
    (truncate_M, field) pairs, a plain f being [(None, f)].  Each field is
    sampled once, before the first stage, and swept over the configured
    decreasing shifts (eps = 0 alone when there are none); each stage
    solves with the samples plus its eps.  A stage at eps_j starts from
    the secant through the two stages before it on the same field,
    u_{j-1} + (eps_j - eps_{j-1}) / (eps_{j-1} - eps_{j-2})
    * (u_{j-1} - u_{j-2}), which predicts the first-order change in eps
    at no factorization's cost (Allgower & Georg, Introduction to
    Numerical Continuation Methods, ch. 2).  It starts from the stage
    before it when its field has fewer than two converged stages so far
    or eps_{j-1} == eps_{j-2}; the first stage starts from u0 when given,
    else from the Poisson start.  Each stage's record says which, as its
    start: "poisson", "given", "secant" or "previous".  Returns the final
    iterate and a report whose stages record each outcome with its
    truncate_M, eps and start, and whose counts and histories are the
    stages' summed; its min_lambda1 is the last stage's.  A stage ends on
    a penalized least-squares stationary point, convex or not, or ends
    the path: it raises NonConvergenceError naming its truncate_M, eps and
    status ("max_iters" or "stagnation", also the report's), with its last
    iterate and every stage so far.
    Raises ValueError, before any stage, for an empty path, a negative
    sample, or a sample that the last shift, the smallest, leaves <= 0.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.perf_counter()
    report = SolveReport("continuation")
    shifts = config.continuation_schedule or (0.0,)
    path = [(M, f_at_qpts(space, field))
            for M, field in (f if isinstance(f, list) else [(None, f)])]
    if not path:
        raise ValueError("the regularization path holds no field")
    for M, fq in path:
        low, eps = fq.min(), shifts[-1]
        if low < 0.0:
            raise ValueError("f is negative at a quadrature point (min {:.3e}"
                             " at truncate_M={}); det D2u = f needs f >= 0"
                             .format(low, M))
        if low + eps <= 0.0:
            raise ValueError(
                "f at truncate_M={} plus the last shift eps={} has a sample "
                "{:.3e} <= 0; end regularization.epsilon_schedule on a "
                "positive eps for degenerate data".format(M, eps, low + eps))
    u, start = u0, "poisson" if u0 is None else "given"
    for (M, fq), (j, eps) in product(path, enumerate(shifts)):
        if j == 0:
            done = []  # (eps, coeffs) of this field's last converged stages
        elif len(done) == 2 and done[0][0] != done[1][0]:
            (e0, c0), (e1, c1) = done
            u = FeFunction(space, c1 + (eps - e1) / (e1 - e0) * (c1 - c0))
            start = "secant"
        try:
            u, stage = newton_solve(space, fq + eps, g, u0=u)
        except NonConvergenceError as exc:
            u, stage = exc.last_iterate, exc.report
        report.stages.append({"truncate_M": M, "eps": float(eps),
                              "start": start, **stage.to_dict()})
        for key in ("residual_history", "residual_history_sup",
                    "step_history", "iterations", "newton_directions",
                    "gauss_newton_directions", "newton_rejections",
                    "refined_exits", "declined_exits", "floor_exits"):
            setattr(report, key, getattr(report, key) + getattr(stage, key))
        if not stage.converged:
            report.finish(stage.status, False, stage.min_lambda1, t0)
            raise NonConvergenceError(
                "stage truncate_M={}, eps={} ended with status {!r}".format(
                    M, eps, stage.status), last_iterate=u, report=report)
        done = done[-1:] + [(eps, u.coeffs)]
        start = "previous"
    return u, report.finish(stage.status, True, stage.min_lambda1, t0)
