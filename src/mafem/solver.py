"""Nonlinear solvers for the discrete determinant equation.

Two drivers share one problem setup (boundary data pinned at Lagrange
nodes, unknowns numbered by FeSpace.interior_index on one given space):

* newton_solve: damped Gauss-Newton, switching to Newton (see below), on
  the penalized least-squares objective
  Phi(c) = 1/2 ||r(c)||^2 + eta/2 * |u|_J^2 + hinge(c), where |u|_J is
  the gradient-jump seminorm across interior edges and hinge is a
  quadratic penalty on negative Hessian eigenvalues over interior cells.
  The cofactor Jacobian is structurally rank deficient (its null directions
  are fields whose cellwise Hessian contraction vanishes while
  normal-derivative jumps move freely), so the plain discrete problem has
  manifolds of quasi-solutions; the jump penalty selects the one closest to
  gradient continuity and makes the Gauss-Newton normal matrix positive
  definite, while the hinge steers the iteration onto the convex branch
  (the determinant alone cannot tell the branches apart).  For data with an
  exact discrete solution whose gradient is continuous (e.g. quadratic
  patches) the penalized minimizer is that exact solution.
* continuation_solve: warm-started sweep over a decreasing schedule of
  positive shifts f + eps, for degenerate or unbounded data.

A caller sets only the iteration cap and the shift schedule (SolverConfig).
Every other setting is a module constant, read when a solve runs, so that
a test can monkeypatch it:

* JUMP_PENALTY = 1e-2, the weight eta of |u|_J^2.  It makes the normal
  matrix definite; the bias it puts on the minimizer grows with it and
  sets the error floor of the convergence studies.
* CONVEX_PENALTY = 1, which weighs a hinge deficit like a residual of the
  same size, and CONVEX_ALLOWANCE = 1e-2 (see _ConvexityHinge).
* TOL_STEP = 1e-10, the sup norm of a direction, and TOL_DECREASE =
  1e-10, the decrease -grad . d it predicts relative to Phi (the Newton
  decrement test of Dennis & Schnabel, Numerical Methods for
  Unconstrained Optimization, sec. 7.2): a direction below either ends a
  solve (see newton_solve).
* ARMIJO = 1e-4, the usual sufficient-decrease constant (Nocedal & Wright,
  Numerical Optimization, sec. 3.1), and MIN_STEP = 2^-20, the shortest
  step tried.

Gauss-Newton leaves out the second-order term T = sum_i r_i D2r_i of the
Hessian of 1/2 ||r||^2.  Where no exact discrete solution exists the
residual does not vanish at the minimizer, T does not either, and
Gauss-Newton converges only linearly (hundreds of iterations on
non-smooth Aleksandrov solutions).  det D2u is quadratic in the
coefficients, so T is exact and cheap (assembly.second_order_term).  The
switch follows Fletcher & Xu (IMA J. Numer. Anal. 7, 1987; Dennis &
Schnabel, ch. 10): the first direction of a solve, and every direction
after a damped step, is Gauss-Newton.  After an accepted full step the
iteration tries the Newton matrix J^T J + T + eta Q_II (+ S^T S).  It
keeps that direction only if the factorization succeeds, the step is
finite and it descends (grad . d < 0); otherwise, in the same iteration,
it counts a Newton rejection and takes the Gauss-Newton direction.  The
hinge enters through S^T S only.  The report counts newton_directions,
gauss_newton_directions (they sum to iterations) and newton_rejections.

The Gauss-Newton normal matrix J^T J + eta Q_II (+ S^T S), definite
through the jump penalty, and the interior Poisson stiffness matrix are
symmetric positive definite; the Newton matrix is symmetric but can be
indefinite away from a minimizer.  All of them go through one
factorization, _factor_spd: SuperLU in symmetric mode, with a
minimum-degree ordering of A + A^T and diagonal pivots.  Diagonal pivots
are stable for SPD matrices, and the symmetric ordering gives less fill
than SuperLU's default column ordering with partial pivoting (3.2M instead
of 4.3M factor nonzeros on a normal matrix of 8,065 interior dofs).

newton_solve samples f at the quadrature points once, for the positivity
check, the Poisson start and every residual of the solve; the residual,
the Jacobian, the hinge and the jump values run on tables built once per
space (see assembly.element_layer and assembly.gradient_jump_seminorm).
Phi's jump term is evaluated from the jump values, not as c.Qc: the
quadratic form cancels to about 1e-16 absolute, which would hide the
decrease of a full step once the residual is below about 1e-8.  A solve
factors only to take a direction and keeps no factor, so a solve
factors exactly report.iterations + report.newton_rejections times (plus
once for a Poisson start).
"""

import json
import time

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import convexity
from .assembly import (apply_boundary, element_layer, f_at_qpts,
                       gradient_jump_matrix, gradient_jump_seminorm,
                       jacobian, load_vector, residual, second_order_term,
                       stiffness_matrix)
from .errors import NonConvergenceError, SingularJacobianError
from .fespace import FeFunction

JUMP_PENALTY = 1e-2
CONVEX_PENALTY = 1.0
CONVEX_ALLOWANCE = 1e-2
TOL_STEP = 1e-10
TOL_DECREASE = 1e-10
ARMIJO = 1e-4
MIN_STEP = 2.0 ** -20


class SolverConfig:
    """The iteration cap of each newton_solve (at least 1) and
    the decreasing shifts eps >= 0 of continuation_solve."""

    def __init__(self, max_iters=120, continuation_schedule=()):
        if (isinstance(max_iters, bool)
                or not isinstance(max_iters, (int, np.integer))
                or max_iters < 1):
            raise ValueError("max_iters must be an integer of at least 1, "
                             "got {!r}".format(max_iters))
        self.max_iters = int(max_iters)
        self.continuation_schedule = tuple(continuation_schedule)
        if not all(eps >= 0 for eps in self.continuation_schedule):
            raise ValueError("continuation shifts must be >= 0, got {}".format(
                list(self.continuation_schedule)))

    def to_dict(self):
        return {
            "max_iters": self.max_iters,
            "continuation_schedule": list(self.continuation_schedule),
        }


class SolveReport:
    """Iteration history and outcome of one solve."""

    def __init__(self, method):
        self.method = method
        self.residual_history = []
        self.residual_history_sup = []
        self.step_history = []
        self.converged = False
        self.status = "running"
        self.iterations = 0
        self.newton_directions = 0
        self.gauss_newton_directions = 0
        self.newton_rejections = 0
        self.min_lambda1 = None
        self.wall_time = 0.0
        self.stages = []

    def record(self, r, step_sup=None):
        """Append the 2- and sup norms of the residual r (and a step size)."""
        self.residual_history.append(float(np.linalg.norm(r)))
        self.residual_history_sup.append(_sup(r))
        if step_sup is not None:
            self.step_history.append(float(step_sup))

    def finish(self, status, converged, u_h, t0):
        self.status = status
        self.converged = bool(converged)
        self.wall_time = time.perf_counter() - t0
        self.min_lambda1 = convexity.analyze(u_h).global_min_lambda1
        return self

    def to_dict(self):
        return {
            "method": self.method,
            "iterations": self.iterations,
            "newton_directions": self.newton_directions,
            "gauss_newton_directions": self.gauss_newton_directions,
            "newton_rejections": self.newton_rejections,
            "converged": self.converged,
            "status": self.status,
            "residual_history": list(self.residual_history),
            "residual_history_sup": list(self.residual_history_sup),
            "step_history": list(self.step_history),
            "min_lambda1": self.min_lambda1,
            "wall_time": self.wall_time,
            "stages": self.stages,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def __repr__(self):
        return ("SolveReport(method={!r}, iterations={}, converged={}, "
                "status={!r})".format(self.method, self.iterations,
                                      self.converged, self.status))


def _sup(v):
    """Sup norm of a vector, 0 for an empty one."""
    return float(np.max(np.abs(v), initial=0.0))


def _check_positive_data(space, f):
    """Sample f at quadrature points; reject negative or vanishing data.

    Returns the samples (see assembly.f_at_qpts).
    """
    fq = f_at_qpts(space, f)
    fmin = float(fq.min())
    if fmin <= 0.0:
        raise ValueError(
            "sampled min of f is {:.3e} <= 0; use continuation_solve with a "
            "positive shift schedule for degenerate data".format(fmin))
    return fq


def _factor_spd(A):
    """SuperLU factorization of a symmetric matrix, with diagonal pivots.

    The matrices are symmetric positive definite except the Newton matrix
    of newton_solve, which can be indefinite.  Diagonal pivots do not
    reliably detect that, so newton_solve checks the Newton step for
    descent itself, and catches the SingularJacobianError of a failed
    Newton factorization: that is a rejected Newton direction, not an
    error.  A csr matrix is handed over as its transpose, which is the
    same matrix in csc form without a copy.  An exactly singular factor
    raises SingularJacobianError.
    """
    A = A.T if A.format == "csr" else A.tocsc()
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularJacobianError(
            "factorization of a symmetric matrix failed ({}); a failed "
            "Newton matrix falls back to Gauss-Newton and does not raise, "
            "so this is the Poisson matrix or the Gauss-Newton normal "
            "matrix: strictify the iterate or solve by continuation over "
            "f + eps".format(exc)
        ) from exc


def default_initial_guess(space, f, g):
    """Solve the Poisson problem lap(u0) = 2*sqrt(f), u0 = g at boundary nodes.

    In 2D, det D2u = f is consistent with lap(u) = 2*sqrt(f) when
    D2u = sqrt(f)*I, which makes this the natural data-driven convex start.
    f is a callable or its samples from assembly.f_at_qpts.
    """
    A = stiffness_matrix(space)
    b = load_vector(space, -2.0 * np.sqrt(np.maximum(f_at_qpts(space, f),
                                                     0.0)))
    u = FeFunction(space)
    u.coeffs[space.boundary_dofs] = apply_boundary(space, g)
    I = space.interior_dofs
    u.coeffs[I] = _factor_spd(A[I][:, I]).solve((b - A @ u.coeffs)[I])
    return u


class _ConvexityHinge:
    """Quadratic hinge penalty on negative Hessian eigenvalues.

    The determinant residual cannot tell a convex iterate from a concave
    one (det is sign-symmetric under u -> -u up to boundary data), so for
    degenerate or envelope-type data the unpenalized objective admits
    mixed-signature minimizers.  This term adds
    CONVEX_PENALTY/2 * sum_{K, q} w_q |K| max(0, -(lambda1 + allowance))^2,
    with allowance = CONVEX_ALLOWANCE, on the element layer at the points of
    the assembly rule over cells with no boundary dof.  Cells touching the
    boundary are exempt because pinned data without a convex extension
    genuinely forces a concave layer there; the allowance keeps the hinge
    inactive near weakly convex iterates (lambda1 >= -allowance).
    """

    def __init__(self, space):
        self.space = space
        el = element_layer(space)
        exempt = (el.res_index.reshape(len(el.weights), -1) == el.n).any(1)
        self.weights = CONVEX_PENALTY * np.where(exempt[:, None], 0.0,
                                                 el.weights)

    def deficits(self, u_h):
        """Hinge activations per (cell, q), 0 on exempt cells, and Hessians."""
        h = u_h.cell_hessians(self.space.default_quadrature())
        lam1 = convexity.eigmin_2x2(h[..., 0], h[..., 1], h[..., 2])
        t = np.where(self.weights > 0.0,
                     np.maximum(0.0, -(lam1 + CONVEX_ALLOWANCE)), 0.0)
        return t, h

    def value(self, u_h):
        t, _ = self.deficits(u_h)
        return 0.5 * float(np.sum(self.weights * t * t))

    def residual_and_jacobian(self, u_h):
        """Weighted hinge values s and sparse ds/dc over interior dofs."""
        el = element_layer(self.space)
        t, h = self.deficits(u_h)
        ci, qi = np.nonzero(t)
        sw = np.sqrt(self.weights[ci, qi])
        s = sw * t[ci, qi]
        hxx, hxy, hyy = h[ci, qi, 0], h[ci, qi, 1], h[ci, qi, 2]
        rad = np.maximum(np.sqrt((0.5 * (hxx - hyy)) ** 2 + hxy ** 2),
                         1e-300)
        dlam = np.column_stack([0.5 - (hxx - hyy) / (4.0 * rad),
                                -hxy / rad,
                                0.5 + (hxx - hyy) / (4.0 * rad)])
        # d lambda1 . (push @ r) = (d lambda1 @ push) . r for the packed
        # reference Hessian r of each basis function
        dref = np.einsum("am,amb->ab", dlam, el.push[ci])
        vals = -sw[:, None] * np.einsum("ab,alb->al", dref,
                                        el.ref_hess[qi])
        cols = el.res_index.reshape(len(el.weights), -1)[ci]  # all interior
        S = sparse.csr_matrix((vals.ravel(), cols.ravel(),
                               np.arange(0, vals.size + 1, vals.shape[1])),
                              shape=(len(ci), el.n))
        return s, S


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


def newton_solve(space, f, g, u0=None, config=None):
    """Damped Gauss-Newton/Newton iteration; returns (u_h, report).

    A solve ends in one place, on each new direction d with gradient grad
    at the iterate, before the line search:
    * when |d|_inf <= TOL_STEP or -grad . d <= TOL_DECREASE * Phi, it takes
      the whole step and returns with status "stationary": the iterate is
      a penalized least-squares critical point, the meaningful notion of
      discrete solution when no exact one exists;
    * when Armijo halves the step below MIN_STEP, the predicted decrease
      is below the evaluation noise of Phi.  With |d|_inf <= 1e-6 the
      iterate is terminal and the solve takes the whole step and returns
      "stationary"; otherwise it raises NonConvergenceError with status
      "stagnation".
    After max_iters directions it raises NonConvergenceError with status
    "max_iters".  Raises SingularJacobianError if the Gauss-Newton normal
    matrix cannot be factorized (see the module docstring for when a
    Newton direction is tried instead).
    The iterate lives on `space`: u0 is copied onto it, or raises
    ValueError unless it has the same degree, mesh vertices and cells.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.perf_counter()
    report = SolveReport("newton")
    fq = _check_positive_data(space, f)

    u = (_start_on(space, u0) if u0 is not None
         else default_initial_guess(space, fq, g))
    u.coeffs[space.boundary_dofs] = apply_boundary(space, g)

    I = space.interior_dofs
    eta = JUMP_PENALTY
    Q = gradient_jump_matrix(space)
    QII = Q[I][:, I].tocsc()
    hinge = _ConvexityHinge(space)

    def objective(u_h):
        r = residual(u_h, fq)
        pen = 0.5 * eta * gradient_jump_seminorm(u_h) ** 2
        pen += hinge.value(u_h)
        return 0.5 * float(r @ r) + pen, r

    def direction(u_h, r, try_newton):
        # r is the residual at u_h, already computed by objective.  Returns
        # the step and the gradient J^T r + eta (Q u)_I (+ S^T s) of Phi:
        # the Newton step when try_newton and the Newton matrix H + T gives
        # a finite descent direction, the Gauss-Newton step on H otherwise.
        J = jacobian(u_h)
        grad = J.T @ r + eta * (Q @ u_h.coeffs)[I]
        H = J.T @ J + eta * QII
        s, S = hinge.residual_and_jacobian(u_h)
        if s.size:
            grad = grad + S.T @ s
            H = H + S.T @ S
        if try_newton:
            try:
                d = _factor_spd(H + second_order_term(space, r)).solve(-grad)
                if np.all(np.isfinite(d)) and float(grad @ d) < 0.0:
                    report.newton_directions += 1
                    return d, grad
            except SingularJacobianError:
                pass
            # no factor, no finite step or no descent: H + T is indefinite
            # or nearly singular here
            report.newton_rejections += 1
        report.gauss_newton_directions += 1
        d = _factor_spd(H).solve(-grad)
        if not np.all(np.isfinite(d)):
            raise SingularJacobianError(
                "singular normal matrix produced a non-finite step; "
                "strictify the iterate or solve by continuation over f + eps")
        return d, grad

    def line_search(u_h, phi, d, gd):
        # Armijo backtracking by halving; None once the step falls below
        # MIN_STEP
        step = 1.0
        trial = u_h.copy()
        while step >= MIN_STEP:
            trial.coeffs[I] = u_h.coeffs[I] + step * d
            phi_t, r_t = objective(trial)
            if phi_t <= phi + ARMIJO * step * gd:
                return step, trial, phi_t, r_t
            step *= 0.5
        return None

    phi, r = objective(u)
    report.record(r)
    full_step = False  # the first direction is Gauss-Newton
    for it in range(config.max_iters):
        d, grad = direction(u, r, try_newton=full_step)
        report.iterations = it + 1
        gd = float(grad @ d)
        d_sup = _sup(d)
        small = d_sup <= TOL_STEP or -gd <= TOL_DECREASE * phi
        accepted = None if small else line_search(u, phi, d, gd)
        if accepted is None:
            if not small and d_sup > 1e-6:
                report.finish("stagnation", False, u, t0)
                raise NonConvergenceError(
                    "line search stagnated below MIN_STEP", last_iterate=u,
                    report=report)
            u.coeffs[I] += d
            phi, r = objective(u)
            report.record(r, d_sup)
            return u, report.finish("stationary", True, u, t0)
        step, u, phi, r = accepted
        full_step = step == 1.0
        report.record(r, step * d_sup)
    report.finish("max_iters", False, u, t0)
    raise NonConvergenceError("newton_solve hit max_iters", last_iterate=u,
                              report=report)


def continuation_solve(space, f, g, config=None, u0=None):
    """Warm-started Newton sweep over the shift schedule f + eps_j.

    Solves the problems with right-hand side f + eps_j for the configured
    decreasing schedule, starting each stage from the previous solution
    (the first from u0 when given), and returns the final iterate with a
    report whose stages record the per-stage outcomes.  A failure of the
    first stage is a failure of the whole solve, raised with a report that
    holds the failed stage; a later stage that fails is recorded and the
    next one continues from its last iterate.  f (a field or its samples)
    is sampled once; each stage solves with the samples plus its shift.
    Raises ValueError when a sample of f is negative.
    """
    if config is None:
        config = SolverConfig(continuation_schedule=(0.0,))
    schedule = config.continuation_schedule or (0.0,)
    t0 = time.perf_counter()
    report = SolveReport("continuation")
    fq = f_at_qpts(space, f)
    if fq.min() < 0.0:
        raise ValueError("f is negative at a quadrature point (min {:.3e}); "
                         "det D2u = f needs f >= 0".format(fq.min()))
    u = u0
    for j, eps in enumerate(schedule):
        failed = False
        try:
            u_next, stage = newton_solve(space, fq + eps, g, u0=u,
                                         config=config)
        except NonConvergenceError as exc:
            u_next, stage, failed = exc.last_iterate, exc.report, True
        report.stages.append({"eps": float(eps), **stage.to_dict()})
        report.residual_history.extend(stage.residual_history)
        report.residual_history_sup.extend(stage.residual_history_sup)
        report.step_history.extend(stage.step_history)
        report.iterations += stage.iterations
        report.newton_directions += stage.newton_directions
        report.gauss_newton_directions += stage.gauss_newton_directions
        report.newton_rejections += stage.newton_rejections
        if failed and j == 0:
            report.finish("stage_failed", False, u_next, t0)
            raise NonConvergenceError(
                "continuation stage eps={} failed".format(eps),
                last_iterate=u_next, report=report)
        u = u_next
    last = report.stages[-1]
    return u, report.finish(last["status"], last["converged"], u, t0)
