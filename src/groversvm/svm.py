"""Soft-margin SVM dual solver over precomputed Gram matrices.

``train`` runs sequential pairwise optimization on the dual

    max_a  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K_ij
    s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0,

selecting the maximal-KKT-violation pair each step (ties broken by lowest
index), which makes training deterministic.  A step makes six O(m) array
calls and otherwise works on Python floats.  The masked labels y_up, y_low
and u = K (alpha y) are the rows of one (3, m) buffer, so one subtract gives
y_up - u and u - y_low and one row-wise argmax picks i and j.  The second
row is exactly -(y_low - u), since a - b and b - a round to the same
magnitude, so its argmax is the argmin of g over I_low, at the same lowest
index; only a zero may differ, in sign, which no stop rule can see.
The step's coefficients go into 0-d arrays and alpha stays a Python list
until the loop ends.

Every pair takes one step: alpha_j moves by y_j (E_i - E_j) / eta, clipped to
the pair's feasible segment, where eta = K_ii + K_jj - 2 K_ij is floored at
tau = 1e-15 (Fan, Chen & Lin, JMLR 6, 2005).  A selected pair violates the
KKT conditions by more than ``tol``, so on a flat or concave pair the floored
step is at least tol / tau long; with any box bound below that it ends on the
segment's ascent-side end, where Platt's endpoint search would put it.
Indefinite (shot-sampled) Gram inputs are accepted; convergence is then to a
stationary KKT point.

Inside a ``solved_once()`` scope, ``train`` solves each distinct problem once
and hands later calls a copy of the stored solution.
"""

from __future__ import annotations

import contextlib
import contextvars
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, DegenerateProblemError, StructuralError
from .kernel import GramMatrix
from .sim import _check_int, _check_real, _int_array

_ALPHA_SNAP = 1e-12
_ETA_FLOOR = 1e-15  # tau: the least pair curvature a step divides by

# Solutions stored by the innermost open solved_once() scope; None outside any.
_solved: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_solved", default=None)


@dataclass(frozen=True)
class SvmModel:
    """Trained dual solution: coefficients, labels, bias, and support set.

    ``iterations`` counts the pair updates made.  ``stop_reason`` says why
    the solver stopped: ``converged`` (every KKT violation within ``tol``),
    ``iteration_cap``, or ``no_progress`` (a step too small to represent).
    """

    dual_coeffs: np.ndarray
    labels: np.ndarray
    bias: float
    support_indices: np.ndarray
    box_bound: float
    iterations: int = 0
    stop_reason: str = "converged"

    @property
    def support_count(self) -> int:
        return int(self.support_indices.size)


def _check_problem(gram, labels, *vectors) -> tuple[np.ndarray, ...]:
    """``(K, y, *vectors)`` of a dual problem as float arrays, each checked.

    ``K`` must be square, symmetric to within 1e-12 (a :class:`GramMatrix` is
    exactly so) and finite.  ``y``, a copy so that models never alias the
    caller's labels, must hold one integer (not bool) +1 or -1 per row, and
    each of ``vectors`` (dual coefficients) one finite entry per row.
    """
    if isinstance(gram, GramMatrix):
        K = np.asarray(gram.entries, dtype=np.float64)
    else:
        K = np.asarray(gram, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise StructuralError("gram must be a square matrix")
        if not np.allclose(K, K.T, atol=1e-12, rtol=0.0):
            raise ContractViolationError("gram matrix must be symmetric")
    if not np.isfinite(K).all():
        raise ContractViolationError("gram entries must be finite")
    y = _int_array(labels, "labels", -1, 1).astype(np.float64)
    if not y.all():
        raise StructuralError("labels must be +1 or -1")
    vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
    shapes = [v.shape for v in (y, *vectors)]
    if any(shape != (K.shape[0],) for shape in shapes):
        raise StructuralError(f"expected {K.shape[0]} labels and coefficients, got shapes {shapes}")
    if not all(np.isfinite(v).all() for v in vectors):
        raise ContractViolationError("dual coefficients must be finite")
    return (K, y, *vectors)


def kkt_gap(gram, labels, alpha: np.ndarray, box_bound: float) -> float:
    """Largest KKT violation m(a) - M(a); <= 0 means the KKT conditions hold.

    ``labels`` and ``alpha`` hold one entry per Gram row; the box bound is positive and finite.
    """
    K, y, alpha = _check_problem(gram, labels, alpha)
    box_bound = _check_real(box_bound, "box bound", positive=True)
    m_up, m_low = _extreme_gradients(y - K @ (alpha * y), y, alpha, box_bound, (-np.inf, np.inf))
    return float(m_up - m_low)


def _extreme_gradients(g, y, alpha, C, if_empty) -> tuple[float, float]:
    """``(m, M)``: the largest ``g`` over I_up and the smallest over I_low.

    I_up holds the k whose alpha_k y_k may still rise within [0, C], I_low
    those whose may fall; ``if_empty`` gives each extreme of an empty set.
    """
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
    m_up = np.max(g[up]) if np.any(up) else if_empty[0]
    m_low = np.min(g[low]) if np.any(low) else if_empty[1]
    return m_up, m_low


def dual_objective(gram, labels, alpha: np.ndarray) -> float:
    """sum(alpha) - 1/2 (alpha y)^T K (alpha y), with one label and coefficient per row."""
    K, y, alpha = _check_problem(gram, labels, alpha)
    v = alpha * y
    return float(np.sum(alpha) - 0.5 * v @ K @ v)


@contextlib.contextmanager
def solved_once():
    """Within this scope ``train`` solves each distinct problem once.

    A problem is the exact bytes of the Gram matrix and labels plus the box
    bound, ``tol`` and ``max_iterations``; a repeat gets fresh copies of the
    stored solution.  Calls with ``objective_history`` always solve.  The
    stored solutions are dropped when the scope exits, normally or not.
    """
    token = _solved.set({})
    try:
        yield
    finally:
        _solved.reset(token)


def train(
    gram,
    labels,
    box_bound: float = 1.0,
    tol: float = 1e-8,
    max_iterations: int | None = None,
    objective_history: list | None = None,
) -> SvmModel:
    """Solve the soft-margin dual by deterministic pairwise optimization.

    Terminates when every KKT violation is at most ``tol`` or after
    ``max_iterations`` pair updates.  The box bound must be a positive and
    ``tol`` a non-negative finite real, and ``max_iterations`` a non-negative
    integer (none a bool).  If ``objective_history`` is a list, the dual
    objective after every pair update is appended to it (it is non-decreasing).
    """
    K, y = _check_problem(gram, labels)
    if np.all(y == 1.0) or np.all(y == -1.0):
        raise DegenerateProblemError("both classes must be present")
    m = K.shape[0]
    C = _check_real(box_bound, "box bound", positive=True)
    tol = _check_real(tol, "tol")
    if max_iterations is None:
        max_iterations = max(2000, 400 * m)
    max_iterations = _check_int(max_iterations, "max_iterations")

    solved = _solved.get()
    if solved is None or objective_history is not None:
        model = _solve(K, y, C, tol, max_iterations, objective_history)
    else:
        key = (K.tobytes(), y.tobytes(), C, tol, max_iterations)
        if key not in solved:
            solved[key] = _solve(K, y, C, tol, max_iterations, None)
        stored = solved[key]
        model = replace(
            stored,
            dual_coeffs=stored.dual_coeffs.copy(),
            labels=y,
            support_indices=stored.support_indices.copy(),
        )
    if model.stop_reason == "iteration_cap":
        warnings.warn("pairwise solver hit the iteration cap before reaching tol")
    return model


def _solve(K, y, C, tol, max_iterations, objective_history) -> SvmModel:
    """The pairwise loop of ``train``, on checked inputs."""
    m = K.shape[0]
    # Row i of K.T is column i of K, bit for bit, even when K is symmetric
    # only to within the tolerance _check_problem allows.
    columns = list(np.ascontiguousarray(K.T))
    alpha = [0.0] * m  # a Python list until the loop ends: its entries are read as floats
    # z's rows: y_up holds y_k where k may move up (I_up) and -inf elsewhere,
    # u_i = sum_j alpha_j y_j K_ij is maintained incrementally, and y_low
    # holds y_k on I_low and +inf elsewhere.  g's rows are then g on I_up and
    # minus g on I_low.  Only alpha_i and alpha_j change in a step, so only
    # entries i and j of the masks do.
    z = np.stack([np.where(y > 0, y, -np.inf), np.zeros(m), np.where(y < 0, y, np.inf)])
    y_up, u, y_low = z  # alpha = 0: I_up is y > 0, I_low is y < 0
    minuend, subtrahend = z[:2], z[1:]
    g, step_i, step_j = np.empty((2, m)), np.empty(m), np.empty(m)
    c_i, c_j = np.empty(()), np.empty(())  # step coefficients: multiply converts no float
    ys = y.tolist()
    diag = K.diagonal().tolist()
    # Bound once, as every name below is looked up in each of thousands of steps.
    inf = np.inf
    subtract, multiply, add = np.subtract, np.multiply, np.add
    argmax, g_item, u_item, k_item = g.argmax, g.item, u.item, K.item
    stop_reason = "iteration_cap"
    for iterations in range(max_iterations):
        subtract(minuend, subtrahend, out=g)
        i, j = argmax(axis=1).tolist()  # argmax takes the lowest index on ties
        g_i, g_j = g_item(0, i), -g_item(1, j)
        if g_i == -inf or g_j == inf or g_i - g_j <= tol:
            stop_reason = "converged"  # I_up or I_low is empty, or every violation is within tol
            break

        # Two-variable analytic step in (alpha_i, alpha_j), on Python floats.
        yi, yj = ys[i], ys[j]
        ai, aj = alpha[i], alpha[j]
        s = yi * yj
        if s < 0:
            lo, hi = max(0.0, aj - ai), min(C, C + aj - ai)
        else:
            lo, hi = max(0.0, aj + ai - C), min(C, aj + ai)
        eta = max(diag[i] + diag[j] - 2.0 * k_item(i, j), _ETA_FLOOR)
        e_diff = (u_item(i) - yi) - (u_item(j) - yj)
        aj_new = min(max(aj + yj * e_diff / eta, lo), hi)  # np.clip, signed zeros too
        ai_new = ai + s * (aj - aj_new)
        di, dj = ai_new - ai, aj_new - aj
        if abs(dj) < 1e-14 * (abs(aj_new) + abs(aj) + 1.0):
            stop_reason = "no_progress"  # no representable progress on the worst pair
            break
        alpha[i], alpha[j] = ai_new, aj_new
        y_up[i] = yi if (yi > 0 and ai_new < C) or (yi < 0 and ai_new > 0) else -inf
        y_low[i] = yi if (yi > 0 and ai_new > 0) or (yi < 0 and ai_new < C) else inf
        y_up[j] = yj if (yj > 0 and aj_new < C) or (yj < 0 and aj_new > 0) else -inf
        y_low[j] = yj if (yj > 0 and aj_new > 0) or (yj < 0 and aj_new < C) else inf
        # u += di y_i K[:, i] + dj y_j K[:, j], summed in that order.
        c_i[()] = di * yi
        c_j[()] = dj * yj
        multiply(columns[i], c_i, out=step_i)
        multiply(columns[j], c_j, out=step_j)
        add(step_i, step_j, out=step_i)
        add(u, step_i, out=u)
        if objective_history is not None:
            a = np.array(alpha)
            objective_history.append(float(np.sum(a) - 0.5 * (a * y) @ u))
    else:
        iterations = max_iterations

    alpha = np.array(alpha)
    alpha[alpha < _ALPHA_SNAP] = 0.0
    alpha[alpha > C - _ALPHA_SNAP] = C
    u = K @ (alpha * y)
    bias = _compute_bias(alpha, y, u, C)
    support = np.flatnonzero(alpha > 0.0)
    return SvmModel(
        dual_coeffs=alpha,
        labels=y,
        bias=bias,
        support_indices=support,
        box_bound=C,
        iterations=iterations,
        stop_reason=stop_reason,
    )


def _compute_bias(alpha, y, u, C) -> float:
    free = (alpha > 0.0) & (alpha < C)
    g = y - u
    if np.any(free):
        return float(np.mean(g[free]))
    m_up, m_low = _extreme_gradients(g, y, alpha, C, (0.0, 0.0))
    return float((m_up + m_low) / 2.0)


def decide(model: SvmModel, kernel_row) -> tuple[float, int]:
    """Decision score and label for one datum given its kernel row.

    ``kernel_row[i]`` is the kernel of the datum with training point i; the
    score is sum_i a_i y_i k_i + b and ties go to +1.  Every entry of the row
    must be finite.
    """
    row = np.asarray(kernel_row, dtype=np.float64)
    if row.shape != model.dual_coeffs.shape:
        raise StructuralError(
            f"kernel row length {row.shape} does not match training size "
            f"{model.dual_coeffs.shape}"
        )
    if not np.isfinite(row).all():
        raise ContractViolationError("kernel row entries must be finite")
    score = float(np.dot(model.dual_coeffs * model.labels, row) + model.bias)
    return score, (1 if score >= 0.0 else -1)
