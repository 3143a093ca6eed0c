"""C-SVM training by Sequential Minimal Optimization.

Replaces scikit-learn's ``SVC`` (which the paper's dislib CSVM uses
inside each cascade task).  The solver is the classic maximal-violating-
pair working-set selection (WSS1, as in LIBSVM): solve

    min_a  0.5 aᵀQa - eᵀa   s.t.  0 <= a_i <= C,  yᵀa = 0

with Q_ij = y_i y_j K(x_i, x_j), updating two multipliers per
iteration analytically and maintaining the gradient incrementally.

An iteration costs its arithmetic, not a rebuild of its state: nine
small-array numpy calls plus scalar Python.

* **Working set.**  I_up and I_low are kept as two offset arrays, 0 for
  a member and -inf (+inf) otherwise, plus their sizes.  Only the two
  multipliers that moved can change membership, so only they are
  re-classified, with the predicates ``a < C - tau`` / ``a > tau`` on
  their new values.
* **Pair selection.**  ``argmax`` (``argmin``) of ``viol + offset``
  picks the first extreme violator of the set: adding 0 leaves a
  member's violation unchanged (up to -0.0 -> +0.0, which compare
  equal), adding -inf (+inf) pushes every other index out of reach.
  This needs ``viol`` finite, which holds while the gradient is:
  non-finite kernels are rejected up front, and a gradient entry that
  overflows never turns finite again (inf + x is inf or NaN, NaN + x is
  NaN), so the check at the end of the solve catches every run in
  which an offset could have met an infinity.
* **Gradient.**  ``grad += Q[:, i] d_i + Q[:, j] d_j`` is computed in
  that order from contiguous columns, and ``viol = -y * grad`` is taken
  from it every iteration.  (Keeping ``viol`` itself up to date would
  save a call but lose the sign of exact zeros: ``g + (-g)`` is +0.0
  while ``-y * 0.0`` is -0.0, and that sign reaches the bias.)
* **Analytic update.**  The two-variable step and its clipping run on
  Python floats, which round exactly like numpy's float64 scalars.

Every floating-point operation is the one the rebuild-every-iteration
solver did, in the same order, so the multipliers, bias, objective and
iteration count are bit-identical to it (``tests/ml/test_smo_svc.py``
keeps that solver as the oracle).
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


def _working_set(alpha: np.ndarray, pos: np.ndarray, C: float):
    """Boolean masks of I_up and I_low at *alpha*."""
    below = alpha < C - _TAU
    above = alpha > _TAU
    return (pos & below) | (~pos & above), (~pos & below) | (pos & above)


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
        (n, n) kernel (Gram) matrix; every entry finite.
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
    if not np.isfinite(K).all():
        raise ValueError("kernel matrix has non-finite entries")

    Q = K * np.outer(y, y)
    cols = list(np.ascontiguousarray(Q.T))  # cols[i] is Q[:, i]
    diag = Q.diagonal().tolist()
    labels = y.tolist()
    neg_y = -y
    # the scalar step compares and stores in float64, as the array did
    box, c_below, tol = float(C), float(C - _TAU), float(tol)

    alpha = [0.0] * n
    grad = -np.ones(n)  # G = Qa - e at a = 0
    viol = np.empty(n)
    scores = np.empty(n)
    step = np.empty(n)
    step_j = np.empty(n)

    pos = y == 1
    up, low = _working_set(np.zeros(n), pos, C)
    up_offset = np.where(up, 0.0, -np.inf)
    low_offset = np.where(low, 0.0, np.inf)
    in_up, in_low = up.tolist(), low.tolist()
    n_up, n_low = sum(in_up), sum(in_low)

    add, multiply = np.add, np.multiply
    n_iter = 0
    converged = False
    while n_iter < max_iter:
        if not n_up or not n_low:
            converged = True
            break
        multiply(neg_y, grad, viol)
        # first maximal violator in I_up, first minimal one in I_low
        add(viol, up_offset, scores)
        i = int(scores.argmax())
        add(viol, low_offset, scores)
        j = int(scores.argmin())
        if viol.item(i) - viol.item(j) < tol:
            converged = True
            break

        g_i, g_j = grad.item(i), grad.item(j)
        old_i, old_j = a_i, a_j = alpha[i], alpha[j]
        if labels[i] != labels[j]:
            quad = max(diag[i] + diag[j] + 2.0 * Q.item(i, j), _TAU)
            delta = (-g_i - g_j) / quad
            diff = a_i - a_j
            a_i += delta
            a_j += delta
            if diff > 0:
                if a_j < 0:
                    a_j = 0.0
                    a_i = diff
            else:
                if a_i < 0:
                    a_i = 0.0
                    a_j = -diff
            if diff > 0:
                if a_i > box:
                    a_i = box
                    a_j = box - diff
            else:
                if a_j > box:
                    a_j = box
                    a_i = box + diff
        else:
            quad = max(diag[i] + diag[j] - 2.0 * Q.item(i, j), _TAU)
            delta = (g_i - g_j) / quad
            total = a_i + a_j
            a_i -= delta
            a_j += delta
            if total > box:
                if a_i > box:
                    a_i = box
                    a_j = total - box
                elif a_j > box:
                    a_j = box
                    a_i = total - box
            else:
                if a_j < 0:
                    a_j = 0.0
                    a_i = total
                elif a_i < 0:
                    a_i = 0.0
                    a_j = total
        alpha[i] = a_i
        alpha[j] = a_j  # last, as when i == j the two writes alias
        d_i, d_j = alpha[i] - old_i, alpha[j] - old_j
        if d_i == 0.0 and d_j == 0.0:
            converged = True
            break

        for k in (i, j):
            a = alpha[k]
            below, above = a < c_below, a > _TAU
            k_up, k_low = (below, above) if labels[k] == 1.0 else (above, below)
            if k_up != in_up[k]:
                in_up[k] = k_up
                up_offset[k] = 0.0 if k_up else -np.inf
                n_up += 1 if k_up else -1
            if k_low != in_low[k]:
                in_low[k] = k_low
                low_offset[k] = 0.0 if k_low else np.inf
                n_low += 1 if k_low else -1

        multiply(cols[i], d_i, step)
        multiply(cols[j], d_j, step_j)
        add(step, step_j, step)
        add(grad, step, grad)
        n_iter += 1

    if not np.isfinite(grad).all():
        raise ValueError("SMO diverged: the gradient overflowed float64 (rescale the kernel)")
    alpha = np.array(alpha)

    # Bias from free support vectors: y_i = sum_j a_j y_j K_ij + b.
    coef = alpha * y
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(y[free] - K[free] @ coef))
    else:
        viol = -y * grad
        up, low = _working_set(alpha, pos, C)
        hi = viol[up].max() if up.any() else 0.0
        lo = viol[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)

    objective = float(0.5 * alpha @ (Q @ alpha) - alpha.sum())
    return SMOResult(alpha=alpha, b=b, objective=objective, n_iter=n_iter, converged=converged)
