"""The EM kernel shared by the open-set fits and the closed-set baselines.

All four fits (open-set MLE and MAP, MLLS and MAPLS) are one EM loop over a
column-scaled output matrix ``W`` and a vector ``x`` of mixing weights on its
columns, with per-sample likelihoods ``d = W @ x``:

* open-set: ``W = fe / ce`` over the K+1 extended classes and
  ``x = [rho * pi, 1 - rho]``;
* closed-set: ``W = f / c`` over the K classes and ``x = pi``.

The E-step needs only the column sums of the responsibilities
``x_j W_ij / d_i``, which are ``x * (W.T @ (1 / d))``: two matrix-vector
products, with no N x K responsibility matrix. The M-steps apply the
Dirichlet/Beta priors through ``alpha - 1``; all-ones priors make every prior
term exactly zero, so maximum likelihood is MAP with unit priors.

The fit returns a flat tuple instead of raising; ``osls.em`` and
``osls.baselines`` translate the degenerate index into ``DegenerateSample``:

    (pi, rho, obj, iters_run, converged, pi_frozen, degenerate_index)

``rho`` is None for closed-set fits, ``obj`` has ``iters_run + 1`` entries
(initial iterate plus one per update) and ``degenerate_index`` is -1 on
success.
"""

from __future__ import annotations

import numpy as np

LIK_FLOOR = 1e-300

# Grid cells evaluated at once by the K=2 grid oracle, bounding its memory.
_GRID_CELLS_PER_BLOCK = 1 << 18


def mixing(pi: np.ndarray, rho) -> np.ndarray:
    """Column weights x: ``[rho * pi, 1 - rho]`` open-set, ``pi`` when rho is None."""
    return pi if rho is None else np.append(rho * pi, 1.0 - rho)


def e_step(w: np.ndarray, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Column sums of the responsibilities ``x_j W_ij / d_i``, given ``d = W @ x > 0``."""
    return x * (w.T @ (1.0 / d))


def nll(d: np.ndarray, axis=None):
    """Negative log likelihood from per-sample likelihoods along ``axis``, floored at 1e-300."""
    return -np.sum(np.log(np.maximum(d, LIK_FLOOR)), axis=axis)


def objective(d, pi, rho, am1, bm1) -> float:
    """NLL minus the log prior density (normalizing constants dropped).

    ``am1`` is ``alpha - 1`` per class and ``bm1`` the pair ``alpha_out - 1``
    for rho and 1 - rho, which a closed-set fit (rho None) leaves out.
    """
    val = nll(d) - float(np.sum(am1 * np.log(np.maximum(pi, LIK_FLOOR))))
    if rho is not None:
        val -= bm1[0] * np.log(max(rho, LIK_FLOOR))
        val -= bm1[1] * np.log(max(1.0 - rho, LIK_FLOOR))
    return val


def open_m_step(s: np.ndarray, n: float, am1: np.ndarray, bm1):
    """Open-set M-step from the K+1 E-step column sums; returns (pi, rho).

    pi is None when its update is undefined (all mass on the OOD class under
    maximum likelihood), in which case the previous pi should be kept.
    """
    k = s.size - 1
    n_in = n - s[k]
    denom_pi = n_in + float(np.sum(am1))
    pi = None if denom_pi == 0.0 else (s[:k] + am1) / denom_pi
    rho = (n_in + bm1[0]) / (n + bm1[0] + bm1[1])
    return pi, float(rho)


def closed_m_step(s: np.ndarray, n: float, am1: np.ndarray) -> np.ndarray:
    """Closed-set M-step from the K E-step column sums."""
    return (s + am1) / (n + float(np.sum(am1)))


def em_fit(w, pi0, rho0, alpha, alpha_out, max_iters, tol):
    """EM for (pi, rho) on W = fe / ce, or for pi alone on W = f / c when rho0 is None.

    ``alpha`` holds the K Dirichlet parameters on pi and ``alpha_out`` the Beta
    pair on (rho, 1 - rho). Iteration stops after ``max_iters`` updates or,
    when ``tol > 0``, once an update moves (pi, rho) by less than ``tol`` in
    L-infinity.
    """
    n = float(w.shape[0])
    am1 = np.asarray(alpha, dtype=np.float64) - 1.0
    bm1 = (float(alpha_out[0]) - 1.0, float(alpha_out[1]) - 1.0)
    pi = np.array(pi0, dtype=np.float64)
    rho = None if rho0 is None else float(rho0)
    frozen = False
    x = mixing(pi, rho)
    d = w @ x
    obj = [objective(d, pi, rho, am1, bm1)]
    for _ in range(max_iters):
        bad = d <= 0.0
        if bad.any():
            return pi, rho, np.array(obj), len(obj) - 1, False, frozen, int(np.argmax(bad))
        s = e_step(w, x, d)
        if rho is None:
            pi_new, rho_new = closed_m_step(s, n, am1), None
            change = float(np.max(np.abs(pi_new - pi)))
        else:
            pi_new, rho_new = open_m_step(s, n, am1, bm1)
            if pi_new is None:
                pi_new, frozen = pi, True
            change = max(float(np.max(np.abs(pi_new - pi))), abs(rho_new - rho))
        pi, rho = pi_new, rho_new
        x = mixing(pi, rho)
        d = w @ x
        obj.append(objective(d, pi, rho, am1, bm1))
        if tol > 0.0 and change < tol:
            return pi, rho, np.array(obj), len(obj) - 1, True, frozen, -1
    return pi, rho, np.array(obj), len(obj) - 1, False, frozen, -1


def _cell_nll(grid, u, dd, j):
    """K=2 NLL at grid columns j (shape (rows, m)) of rows with u = p1 * a + (1 - p1) * b."""
    t = grid[j][:, :, None]
    return nll(t * u[:, None, :] + (1.0 - t) * dd, axis=2)


def nll_grid_k2_argmin(w: np.ndarray, n_side: int):
    """Lowest-index argmin of the K=2 NLL on an n_side x n_side grid of (pi_1, rho_t).

    ``w`` is ``fe / ce`` with columns (class 1, class 2, OOD). Returns
    (i, j, nll) for the cell (pi_1, rho_t) = (i, j) / (n_side - 1). For a fixed
    pi_1 the NLL is -sum log of a function affine in rho_t, hence convex in
    rho_t, so each row's minimum is found by bisection on the sign of the
    forward difference: the lowest j with nll(j) <= nll(j + 1). Cells are
    evaluated with the same arithmetic as a full scan of the surface, so the
    result is the lowest-index argmin of the flattened surface.
    """
    grid = np.linspace(0.0, 1.0, n_side)
    a, b, dd = w[:, 0], w[:, 1], w[:, 2]
    rows_per_block = max(1, _GRID_CELLS_PER_BLOCK // (2 * max(w.shape[0], 1)))
    best_j = np.empty(n_side, dtype=np.int64)
    best_val = np.empty(n_side)
    for start in range(0, n_side, rows_per_block):
        p1 = grid[start : start + rows_per_block]
        u = p1[:, None] * a + (1.0 - p1)[:, None] * b
        lo = np.zeros(p1.size, dtype=np.int64)
        hi = np.full(p1.size, n_side - 1, dtype=np.int64)
        active = np.flatnonzero(lo < hi)
        while active.size:
            mid = (lo[active] + hi[active]) // 2
            vals = _cell_nll(grid, u[active], dd, np.stack([mid, mid + 1], axis=1))
            rising = vals[:, 0] <= vals[:, 1]
            hi[active[rising]] = mid[rising]
            lo[active[~rising]] = mid[~rising] + 1
            active = np.flatnonzero(lo < hi)
        best_j[start : start + p1.size] = lo
        best_val[start : start + p1.size] = _cell_nll(grid, u, dd, lo[:, None])[:, 0]
    i = int(np.argmin(best_val))
    return i, int(best_j[i]), float(best_val[i])
