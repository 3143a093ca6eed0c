"""C-SVM training by Sequential Minimal Optimization.

Replaces scikit-learn's ``SVC`` (which the paper's dislib CSVM uses
inside each cascade task).  The solver is the classic maximal-violating-
pair working-set selection (WSS1, as in LIBSVM): solve

    min_a  0.5 aᵀQa - eᵀa   s.t.  0 <= a_i <= C,  yᵀa = 0

with Q_ij = y_i y_j K(x_i, x_j), updating two multipliers per
iteration analytically and maintaining the gradient incrementally.
The pair is selected on whole arrays: the violations outside I_up
(I_low) are masked to -inf (+inf) and one ``argmax`` (``argmin``) picks
the first extreme of what is left, with no index lists or copies of the
working set per iteration.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_TAU = 1e-12


@dataclasses.dataclass
class SMOResult:
    """Solver output: multipliers, bias, objective and iteration count."""

    alpha: np.ndarray
    b: float
    objective: float
    n_iter: int
    converged: bool


def smo_solve(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_iter: int = 20_000,
) -> SMOResult:
    """Solve the dual SVM problem given a precomputed kernel matrix.

    Parameters
    ----------
    K:
        (n, n) kernel (Gram) matrix.
    y:
        Labels in {-1, +1}.
    C:
        Box constraint.
    tol:
        KKT violation tolerance (stopping criterion).
    max_iter:
        Hard cap on working-set iterations.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if K.shape != (n, n):
        raise ValueError(f"kernel matrix {K.shape} does not match {n} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1/+1")
    if C <= 0:
        raise ValueError("C must be positive")

    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Qa - e at a = 0
    Q = K * np.outer(y, y)

    pos = y == 1
    neg = ~pos

    n_iter = 0
    converged = False
    while n_iter < max_iter:
        below = alpha < C - _TAU
        above = alpha > _TAU
        up = (pos & below) | (neg & above)
        low = (neg & below) | (pos & above)
        if not up.any() or not low.any():
            converged = True
            break
        viol = -y * grad
        # first maximal violator in I_up, first minimal one in I_low
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        j = int(np.argmin(np.where(low, viol, np.inf)))
        if viol[i] - viol[j] < tol:
            converged = True
            break

        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = max(Q[i, i] + Q[j, j] + 2.0 * Q[i, j], _TAU)
            delta = (-grad[i] - grad[j]) / quad
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = C - diff
            else:
                if alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = C + diff
        else:
            quad = max(Q[i, i] + Q[j, j] - 2.0 * Q[i, j], _TAU)
            delta = (grad[i] - grad[j]) / quad
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > C:
                if alpha[i] > C:
                    alpha[i] = C
                    alpha[j] = total - C
                elif alpha[j] > C:
                    alpha[j] = C
                    alpha[i] = total - C
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
                elif alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total
        d_i, d_j = alpha[i] - old_i, alpha[j] - old_j
        if d_i == 0.0 and d_j == 0.0:
            converged = True
            break
        grad += Q[:, i] * d_i + Q[:, j] * d_j
        n_iter += 1

    # Bias from free support vectors: y_i = sum_j a_j y_j K_ij + b.
    coef = alpha * y
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(y[free] - K[free] @ coef))
    else:
        viol = -y * grad
        up = (pos & (alpha < C - _TAU)) | (neg & (alpha > _TAU))
        low = (neg & (alpha < C - _TAU)) | (pos & (alpha > _TAU))
        hi = viol[up].max() if up.any() else 0.0
        lo = viol[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)

    objective = float(0.5 * alpha @ (Q @ alpha) - alpha.sum())
    return SMOResult(alpha=alpha, b=b, objective=objective, n_iter=n_iter, converged=converged)
