"""Reference solvers for the SVM dual, used only by tests.

``brute_force_qp`` solves the dual exactly by enumerating which alphas sit at
0, at C or in between; it is independent of the pairwise solver, so it
cross-checks ``svm.train``.
``train_reference`` is the pairwise loop of ``svm.train`` as it was before
the loop was made allocation-free; ``svm.train`` must match it bit for bit.
"""

import itertools
import warnings

import numpy as np

from groversvm.errors import StructuralError
from groversvm.svm import (
    _ALPHA_SNAP,
    SvmModel,
    _check_problem,
    _compute_bias,
)


_KKT_TOL = 1e-12


def _partitions(m: int) -> np.ndarray:
    """Every split of m indices into alpha = 0 (0), free (1) and alpha = C (2): 3**m rows."""
    return np.array(list(itertools.product((0, 1, 2), repeat=m)), dtype=np.int8).reshape(-1, m)


def brute_force_qp(gram, labels, box_bound: float) -> SvmModel:
    """Exact solution of the same dual by active-set enumeration; validation oracle only.

    Each alpha_i is at 0, free, or at C.  For every one of the 3**m partitions,
    one bordered linear system gives beta = y * alpha and the bias b:

        K_i . beta + b = y_i  (i free),   beta_i = 0 or C y_i  (i at a bound),
        sum_i beta_i = 0,

    all solved in one batched call.  A candidate is accepted when its free
    alphas lie in [0, C] and every KKT condition holds to 1e-12 (checked here,
    independently of ``svm.kkt_gap``); among accepted candidates the one
    with the largest dual objective is returned.  With no free alpha the bias
    is ``svm._compute_bias``'s midpoint.  Refused above m = 8.
    """
    K, y = _check_problem(gram, labels)
    m = K.shape[0]
    if m > 8:
        raise StructuralError("brute-force QP oracle is limited to m <= 8")
    C = float(box_bound)
    if C < 0.0:
        raise StructuralError("box bound must be non-negative")
    if C == 0.0:
        warnings.warn("box bound 0 forces the degenerate all-zero dual solution")
        alpha = np.zeros(m)
        return SvmModel(alpha, y, 0.0, np.flatnonzero(alpha > 0), C)

    parts = _partitions(m)
    free, at_zero, at_c = parts == 1, parts == 0, parts == 2
    has_free = free.any(axis=1)
    system = np.zeros((len(parts), m + 1, m + 1))
    system[:, :m, :m] = np.where(free[:, :, None], K[None], np.eye(m)[None])
    system[:, :m, m] = free  # the bias enters the free rows only
    system[:, m, :m] = has_free[:, None]  # sum_i beta_i = 0; checked below when nothing is free
    system[~has_free, m, m] = 1.0  # b = 0 stands in for an interval
    rhs = np.concatenate([np.where(free, y, C * y * at_c), np.zeros((len(parts), 1))], axis=1)
    solution = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    alpha = np.where(free, y * solution[:, :m], C * at_c)

    a = np.clip(alpha, 0.0, C)
    u = (a * y) @ K
    g = y - u
    # With nothing free the bias is an interval: max g over I_up to min g over I_low.
    up = (y > 0) & (a < C) | (y < 0) & (a > 0)
    low = (y > 0) & (a > 0) | (y < 0) & (a < C)
    lower = np.where(up, g, -np.inf).max(axis=1)
    upper = np.where(low, g, np.inf).min(axis=1)
    bias = np.where(has_free, solution[:, m], (lower + upper) / 2.0)
    margin = y * (u + bias[:, None])
    ok = (
        np.all((alpha >= -_KKT_TOL) & (alpha <= C + _KKT_TOL), axis=1)
        & (np.abs(a @ y) <= _KKT_TOL)
        & np.all(~free | (np.abs(margin - 1.0) <= _KKT_TOL), axis=1)
        & np.all(~at_zero | (margin >= 1.0 - _KKT_TOL), axis=1)
        & np.all(~at_c | (margin <= 1.0 + _KKT_TOL), axis=1)
    )
    if not ok.any():
        raise StructuralError("no partition satisfies the KKT conditions to 1e-12")
    value = np.where(ok, a.sum(axis=1) - 0.5 * np.einsum("pi,pi->p", a * y, u), -np.inf)
    best = int(np.argmax(value))
    a, b = a[best], float(bias[best])
    if not np.any((a > 0.0) & (a < C)):
        b = _compute_bias(a, y, u[best], C)
    return SvmModel(a, y, b, np.flatnonzero(a > 0.0), C)


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
    K, y = _check_problem(gram, labels)
    m = K.shape[0]
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
