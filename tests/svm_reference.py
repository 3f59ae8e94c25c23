"""Reference solvers for the SVM dual, used only by tests.

``brute_force_qp`` solves the dual by dense projected gradient; it is slow and
independent of the pairwise solver, so it cross-checks ``svm.train``.
``train_reference`` is the pairwise loop of ``svm.train`` as it was before
the loop was made allocation-free; ``svm.train`` must match it bit for bit.
"""

import warnings

import numpy as np

from groversvm.errors import StructuralError
from groversvm.svm import (
    _ALPHA_SNAP,
    SvmModel,
    _as_matrix,
    _check_labels,
    _compute_bias,
    kkt_gap,
)


def _project_box_hyperplane(beta: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Project onto {0 <= a <= C, y . a = 0} by bisection on the multiplier."""
    span = float(np.max(np.abs(beta))) + C + 1.0

    def constraint(nu):
        return float(y @ np.clip(beta - nu * y, 0.0, C))

    lo, hi = -span, span
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if constraint(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(beta - ((lo + hi) / 2.0) * y, 0.0, C)


def brute_force_qp(
    gram,
    labels,
    box_bound: float,
    tol: float = 1e-10,
    max_iterations: int = 500_000,
) -> SvmModel:
    """Dense projected-gradient solution of the same dual; validation oracle only.

    Deliberately slow and refused above m = 8.
    """
    K = _as_matrix(gram)
    m = K.shape[0]
    if m > 8:
        raise StructuralError("brute-force QP oracle is limited to m <= 8")
    y = _check_labels(labels, m)
    C = float(box_bound)
    if C < 0.0:
        raise StructuralError("box bound must be non-negative")
    if C == 0.0:
        warnings.warn("box bound 0 forces the degenerate all-zero dual solution")
        alpha = np.zeros(m)
        return SvmModel(alpha, y, 0.0, np.flatnonzero(alpha > 0), C)

    Q = np.outer(y, y) * K
    step = 1.0 / max(float(np.max(np.abs(np.linalg.eigvalsh(Q)))), 1e-12)
    alpha = np.zeros(m)
    for _ in range(max_iterations):
        grad = 1.0 - Q @ alpha
        alpha_new = _project_box_hyperplane(alpha + step * grad, y, C)
        alpha = alpha_new
        if kkt_gap(K, y, alpha, C) <= tol:
            break
    else:
        warnings.warn("projected gradient hit the iteration cap before reaching tol")

    alpha = alpha.copy()
    alpha[alpha < _ALPHA_SNAP] = 0.0
    alpha[alpha > C - _ALPHA_SNAP] = C
    u = K @ (alpha * y)
    bias = _compute_bias(alpha, y, u, C)
    return SvmModel(alpha, y, bias, np.flatnonzero(alpha > 0.0), C)


def train_reference(
    gram,
    labels,
    box_bound: float = 1.0,
    tol: float = 1e-8,
    max_iterations: int | None = None,
    objective_history: list | None = None,
) -> SvmModel:
    """The pairwise solver as it was before its allocation-free rewrite.

    Kept verbatim, so differential tests can require the rewrite to give the
    same bits: same pairs, same steps, same stopping point.
    """
    K = _as_matrix(gram)
    m = K.shape[0]
    y = _check_labels(labels, m)
    C = float(box_bound)
    if C <= 0.0:
        raise StructuralError("box bound must be positive")
    if max_iterations is None:
        max_iterations = max(2000, 400 * m)

    alpha = np.zeros(m)
    u = np.zeros(m)  # u_i = sum_j alpha_j y_j K_ij, maintained incrementally
    for _ in range(max_iterations):
        g = y - u
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not np.any(up) or not np.any(low):
            break
        g_up = np.where(up, g, -np.inf)
        g_low = np.where(low, g, np.inf)
        i = int(np.argmax(g_up))  # argmax/argmin take the lowest index on ties
        j = int(np.argmin(g_low))
        if g_up[i] - g_low[j] <= tol:
            break

        # Two-variable analytic step in (alpha_i, alpha_j).
        s = y[i] * y[j]
        if s < 0:
            lo, hi = max(0.0, alpha[j] - alpha[i]), min(C, C + alpha[j] - alpha[i])
        else:
            lo, hi = max(0.0, alpha[j] + alpha[i] - C), min(C, alpha[j] + alpha[i])
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        e_diff = (u[i] - y[i]) - (u[j] - y[j])
        if eta > 1e-15:
            aj_new = np.clip(alpha[j] + y[j] * e_diff / eta, lo, hi)
        else:
            # Indefinite direction: evaluate the restricted objective at both ends.
            aj_new = _endpoint_step_reference(K, y, alpha, u, i, j, lo, hi)
        ai_new = alpha[i] + s * (alpha[j] - aj_new)
        di, dj = ai_new - alpha[i], aj_new - alpha[j]
        if abs(dj) < 1e-14 * (abs(aj_new) + abs(alpha[j]) + 1.0):
            break  # no representable progress on the worst pair
        alpha[i], alpha[j] = ai_new, aj_new
        u += di * y[i] * K[:, i] + dj * y[j] * K[:, j]
        if objective_history is not None:
            objective_history.append(float(np.sum(alpha) - 0.5 * (alpha * y) @ u))
    else:
        warnings.warn("pairwise solver hit the iteration cap before reaching tol")

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
    )


def _endpoint_step_reference(K, y, alpha, u, i, j, lo, hi) -> float:
    s = y[i] * y[j]
    best_val, best_aj = -np.inf, alpha[j]
    for aj in (lo, hi):
        dj = aj - alpha[j]
        di = -s * dj
        # Restricted dual objective change for the (i, j) move.
        delta = (
            di + dj
            - di * y[i] * u[i] - dj * y[j] * u[j]
            - 0.5 * (di * di * K[i, i] + dj * dj * K[j, j])
            - di * dj * y[i] * y[j] * K[i, j]
        )
        if delta > best_val + 1e-15:
            best_val, best_aj = delta, aj
    if best_val <= 0.0:
        return alpha[j]
    return best_aj
