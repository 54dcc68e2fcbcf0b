"""Nonlinear solvers for the discrete determinant equation.

Two drivers share one problem setup (boundary data pinned at Lagrange
nodes, residual and Jacobian over interior dofs):

* newton_solve: damped Gauss-Newton on the penalized least-squares
  objective Phi(c) = 1/2 ||r(c)||^2 + eta/2 * |u|_J^2 + hinge(c), where
  |u|_J is the gradient-jump seminorm across interior edges and hinge is a
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

Every linear system solved here is symmetric positive definite: the
Gauss-Newton normal matrix J^T J + eta Q_II (+ S^T S), definite through
the jump penalty, and the interior Poisson stiffness matrix.  All of them
go through one factorization, _factor_spd: SuperLU in symmetric mode, with
a minimum-degree ordering of A + A^T and diagonal pivots.  Diagonal pivots
are stable for SPD matrices, and the symmetric ordering gives less fill
than SuperLU's default column ordering with partial pivoting (3.2M instead
of 4.3M factor nonzeros on a normal matrix of 8,065 interior dofs).

newton_solve samples f at the quadrature points once, for the positivity
check, the Poisson start and every residual of the solve; the residual,
the Jacobian and the hinge run on cell tables built once per space (see
assembly.element_layer).  It factors the normal matrix once per
Gauss-Newton iteration and nowhere else.  Its terminal polish takes
chord steps on the factor of the last Gauss-Newton iteration: each step
recomputes the exact gradient J^T r + eta (Q u)_I (+ S^T s) at the
current iterate and back-solves with the old factor.  Polish moves the
iterate by less than 1e-5, so the old normal matrix still contracts the
steps, and with the exact gradient the stationary point is the same
(Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
sec. 5.4).  The previous factor is released before the next one is
computed, so at most one factor is alive at a time.  Every Gauss-Newton
direction counts in report.iterations, so a solve factors the normal
matrix exactly report.iterations times (plus once for the Poisson start).
"""

import json
import time

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from . import convexity
from . import kernels
from .assembly import (apply_boundary, f_at_qpts, gradient_jump_matrix,
                       jacobian, load_vector, residual, stiffness_matrix)
from .errors import NonConvergenceError, SingularJacobianError
from .fespace import FeFunction


class SolverConfig:
    """Tolerances and knobs shared by the solve drivers."""

    def __init__(self, tol_residual=1e-10, max_iters=120, min_step=2.0 ** -20,
                 armijo=1e-4, continuation_schedule=(), jump_penalty=1e-2,
                 convex_penalty=1.0, convex_allowance=1e-2, tol_step=1e-10):
        if tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        self.tol_residual = float(tol_residual)
        self.max_iters = int(max_iters)
        self.min_step = float(min_step)
        self.armijo = float(armijo)
        self.continuation_schedule = tuple(continuation_schedule)
        self.jump_penalty = float(jump_penalty)
        self.convex_penalty = float(convex_penalty)
        self.convex_allowance = float(convex_allowance)
        self.tol_step = float(tol_step)

    def to_dict(self):
        return {
            "tol_residual": self.tol_residual,
            "max_iters": self.max_iters,
            "min_step": self.min_step,
            "armijo": self.armijo,
            "continuation_schedule": list(self.continuation_schedule),
            "jump_penalty": self.jump_penalty,
            "convex_penalty": self.convex_penalty,
            "convex_allowance": self.convex_allowance,
            "tol_step": self.tol_step,
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
        self.min_lambda1 = None
        self.wall_time = 0.0
        self.stages = []

    def record(self, res2, res_sup, step_sup=None):
        self.residual_history.append(float(res2))
        self.residual_history_sup.append(float(res_sup))
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
    """SuperLU factorization of a symmetric positive definite matrix.

    A csr matrix is handed over as its transpose, which is the same matrix
    in csc form without a copy.  An exactly singular factor raises
    SingularJacobianError.
    """
    A = A.T if A.format == "csr" else A.tocsc()
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularJacobianError(
            "factorization of a symmetric positive definite matrix failed "
            "({}); for the Gauss-Newton normal matrix, strictify the "
            "iterate or solve by continuation over f + eps".format(exc)
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
    B = space.boundary_dofs
    rhs = b[I] - A[I][:, B] @ u.coeffs[B]
    u.coeffs[I] = _factor_spd(A[I][:, I]).solve(rhs)
    return u


class _ConvexityHinge:
    """Quadratic hinge penalty on negative Hessian eigenvalues.

    The determinant residual cannot tell a convex iterate from a concave
    one (det is sign-symmetric under u -> -u up to boundary data), so for
    degenerate or envelope-type data the unpenalized objective admits
    mixed-signature minimizers.  This term adds
    penalty/2 * sum_{K, q} w_q |K| max(0, -(lambda1 + allowance))^2
    over cells none of whose vertices lie on the boundary.  Cells touching
    the boundary are exempt because pinned data without a convex extension
    genuinely forces a concave layer there; the allowance keeps the hinge
    inactive near weakly convex iterates (lambda1 >= -allowance).
    """

    def __init__(self, space, penalty, allowance):
        self.space = space
        self.penalty = float(penalty)
        self.allowance = float(allowance)
        mesh = space.mesh
        on_bd = np.zeros(len(mesh.vertices), dtype=bool)
        on_bd[mesh.boundary_vertex_indices()] = True
        self.cells = np.flatnonzero(~on_bd[mesh.cells].any(axis=1))
        quad = space.quadrature(max(2 * space.degree - 4, 2))
        self.ref_hess = space.tables(quad)["hess"]
        self.push = space.cell_hess_push[self.cells]
        self.gdofs = space.cell_dofs[self.cells]
        self.weights = (self.penalty * space.cell_areas[self.cells][:, None]
                        * quad.weights[None, :])
        imap = np.full(space.num_dofs, -1, dtype=np.int64)
        imap[space.interior_dofs] = np.arange(len(space.interior_dofs))
        self.cols = imap[self.gdofs]
        self.n_interior = len(space.interior_dofs)

    def deficits(self, u_h):
        """Hinge activations max(0, -(lambda1 + allowance)) per (cell, q)."""
        h = kernels.hessians_at_qpts(u_h.coeffs[self.gdofs], self.ref_hess,
                                     self.push)
        lam1 = convexity.eigmin_2x2(h[..., 0], h[..., 1], h[..., 2])
        return np.maximum(0.0, -(lam1 + self.allowance)), h

    def value(self, u_h):
        if not len(self.cells):
            return 0.0
        t, _ = self.deficits(u_h)
        return 0.5 * float(np.sum(self.weights * t * t))

    def residual_and_jacobian(self, u_h):
        """Weighted hinge values s and sparse ds/dc over interior dofs."""
        if not len(self.cells):
            return np.zeros(0), sparse.csr_matrix((0, self.n_interior))
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
        dref = np.einsum("am,amb->ab", dlam, self.push[ci])
        vals = -sw[:, None] * np.einsum("ab,alb->al", dref,
                                        self.ref_hess[qi])
        cols = self.cols[ci]
        keep = cols >= 0
        indptr = np.r_[0, np.cumsum(keep.sum(axis=1))]
        S = sparse.csr_matrix((vals[keep], cols[keep], indptr),
                              shape=(len(ci), self.n_interior))
        return s, S


def newton_solve(space, f, g, u0=None, config=None):
    """Damped Gauss-Newton with gradient-jump penalty; returns (u_h, report).

    Stops when the sup norm of the residual falls below tol_residual
    (status "residual") or the accepted update falls below tol_step
    (status "stationary"; the iterate is then a penalized least-squares
    critical point, the meaningful notion of discrete solution when no
    exact one exists).  Raises NonConvergenceError on line-search
    stagnation and SingularJacobianError if the normal matrix cannot be
    factorized.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.perf_counter()
    report = SolveReport("newton")
    fq = _check_positive_data(space, f)

    u = u0.copy() if u0 is not None else default_initial_guess(space, fq, g)
    u.coeffs[space.boundary_dofs] = apply_boundary(space, g)

    I = space.interior_dofs
    eta = config.jump_penalty
    Q = gradient_jump_matrix(space)
    QII = Q[I][:, I].tocsc()
    hinge = None
    if config.convex_penalty > 0.0:
        hinge = _ConvexityHinge(space, config.convex_penalty,
                                config.convex_allowance)

    def objective(u_h):
        r = residual(u_h, fq)
        pen = 0.5 * eta * float(u_h.coeffs @ (Q @ u_h.coeffs))
        if hinge is not None:
            pen += hinge.value(u_h)
        return 0.5 * float(r.values @ r.values) + pen, r

    def gradient(u_h, r):
        # Gradient of Phi at u_h from the residual r there, with the
        # Jacobians of the residual and of the hinge values (S is None
        # when no hinge entry is active).
        J = jacobian(u_h).matrix
        grad = J.T @ r.values + eta * (Q @ u_h.coeffs)[I]
        S = None
        if hinge is not None:
            s, S = hinge.residual_and_jacobian(u_h)
            if s.size:
                grad = grad + S.T @ s
            else:
                S = None
        return grad, J, S

    def solve_normal(lu, grad):
        d = lu.solve(-grad)
        if not np.all(np.isfinite(d)):
            raise SingularJacobianError(
                "singular normal matrix produced a non-finite step; "
                "strictify the iterate or solve by continuation over f + eps")
        return d

    def gn_direction(u_h, r):
        # r is the residual at u_h, already computed by objective.  Returns
        # the step, the gradient and the factor of the normal matrix.
        grad, J, S = gradient(u_h, r)
        H = J.T @ J + eta * QII
        if S is not None:
            H = H + S.T @ S
        lu = _factor_spd(H)
        return solve_normal(lu, grad), grad, lu

    def polish(u_h, lu, d=None, cap=1e-5):
        # Below the objective's evaluation noise the line search cannot
        # certify decrease, but the step equation is still accurate; take
        # undamped chord steps, on the last Gauss-Newton factor lu and the
        # exact gradient at each iterate, while they strictly contract to
        # pin down the stationary point.  d is the step at u_h when already
        # known.  Returns the refined iterate and the last accepted step
        # size (inf when no step contracted).
        prev = np.inf
        for _ in range(50):
            if d is None:
                d = solve_normal(lu, gradient(u_h, residual(u_h, fq))[0])
            d_sup = float(np.max(np.abs(d))) if len(d) else 0.0
            if d_sup > cap or d_sup >= prev:
                break
            u_h.coeffs[I] += d
            prev = d_sup
            if d_sup <= 1e-14 * (1.0 + float(np.max(np.abs(u_h.coeffs)))):
                break
            d = None
        return u_h, prev

    phi, r = objective(u)
    report.record(r.norm(2), r.norm(np.inf))
    for it in range(config.max_iters):
        if r.norm(np.inf) <= config.tol_residual:
            report.iterations = it
            return u, report.finish("residual", True, u, t0)
        lu = None  # release the last factor before computing the next
        d, grad, lu = gn_direction(u, r)
        gd = float(grad @ d)
        d_sup = float(np.max(np.abs(d))) if len(d) else 0.0
        step = 1.0
        trial = u.copy()
        while True:
            trial.coeffs[I] = u.coeffs[I] + step * d
            phi_t, r_t = objective(trial)
            if phi_t <= phi + config.armijo * step * gd:
                break
            step *= 0.5
            if step < config.min_step:
                # The predicted decrease is below the noise floor of the
                # objective, so Armijo is blind here.  The iterate is
                # terminal, not stuck, if it is already nearly fixed or if
                # undamped steps contract from it.  Iteration it computed
                # and factored a direction, so it counts.
                report.iterations = it + 1
                if d_sup <= 1e-6 or abs(gd) <= 16 * np.finfo(float).eps * phi:
                    u, _ = polish(u, lu, d)
                    return u, report.finish("stationary", True, u, t0)
                u, last_step = polish(u, lu, d, cap=1e-4)
                if last_step <= 1e-6:
                    return u, report.finish("stationary", True, u, t0)
                report.finish("stagnation", False, u, t0)
                raise NonConvergenceError(
                    "line search stagnated below min_step", last_iterate=u,
                    report=report)
        u, phi, r = trial, phi_t, r_t
        step_sup = step * float(np.max(np.abs(d)))
        report.record(r.norm(2), r.norm(np.inf), step_sup)
        if step_sup <= config.tol_step:
            u, _ = polish(u, lu)
            report.iterations = it + 1
            return u, report.finish("stationary", True, u, t0)
    report.iterations = config.max_iters
    if r.norm(np.inf) <= config.tol_residual:
        return u, report.finish("residual", True, u, t0)
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
    """
    if config is None:
        config = SolverConfig(continuation_schedule=(0.0,))
    schedule = config.continuation_schedule or (0.0,)
    t0 = time.perf_counter()
    report = SolveReport("continuation")
    fq = f_at_qpts(space, f)
    u = u0
    for j, eps in enumerate(schedule):
        failed = False
        try:
            u_next, stage = newton_solve(space, fq + eps, g, u0=u,
                                         config=config)
        except NonConvergenceError as exc:
            u_next, stage, failed = exc.last_iterate, exc.report, True
        if stage is not None:
            report.stages.append({"eps": float(eps), **stage.to_dict()})
            report.residual_history.extend(stage.residual_history)
            report.residual_history_sup.extend(stage.residual_history_sup)
            report.step_history.extend(stage.step_history)
            report.iterations += stage.iterations
        if failed and (j == 0 or u_next is None):
            report.finish("stage_failed", False, u_next or FeFunction(space),
                          t0)
            raise NonConvergenceError(
                "continuation stage eps={} failed".format(eps),
                last_iterate=u_next, report=report)
        u = u_next
    converged = bool(report.stages and report.stages[-1]["converged"])
    return u, report.finish(report.stages[-1]["status"], converged, u, t0)
