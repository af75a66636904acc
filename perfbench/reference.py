"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``osls``. Files are parsed with the standard library and
every quantity is restated from its definition in plain numpy, so a check
never compares the program with itself. Conventions: ID classes are 1..K, the
OOD class is K+1, and an extended vector is ``[rho * p, 1 - rho]``.
"""

from __future__ import annotations

import json

import numpy as np

# Floor inside the log of the likelihood, as the package documents it.
LIK_FLOOR = 1e-300


def read_jsonl(path) -> list:
    """Parse a JSON-lines file into a list of objects."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def prediction_arrays(rows: list):
    """(f, h, y) arrays from parsed prediction rows; y is None when absent."""
    f = np.array([row["f"] for row in rows], dtype=float)
    h = np.array([row["h"] for row in rows], dtype=float)
    y = None
    if rows and all("y" in row for row in rows):
        y = np.array([row["y"] for row in rows], dtype=np.int64)
    return f, h, y


def corrected_arrays(rows: list):
    """(g, y_hat, y) arrays from parsed corrected rows."""
    g = np.array([row["g"] for row in rows], dtype=float)
    y_hat = np.array([row["y_hat"] for row in rows], dtype=np.int64)
    y = np.array([row["y"] for row in rows], dtype=np.int64) if "y" in rows[0] else None
    return g, y_hat, y


def extend(p, rho: float) -> np.ndarray:
    """The (K+1)-class vector [rho * p, 1 - rho]."""
    return np.append(float(rho) * np.asarray(p, dtype=float), 1.0 - float(rho))


def extended_outputs(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per-row combined classifier outputs [h * f, 1 - h]."""
    return np.column_stack([f * h[:, None], 1.0 - h])


def class_frequencies(y: np.ndarray, k: int) -> np.ndarray:
    """Empirical frequencies of the labels 1..K."""
    return np.bincount(y - 1, minlength=k)[:k] / y.size


def lt_prior(k: int, imbalance: float) -> np.ndarray:
    """Forward long-tailed prior: pi_j proportional to imbalance^(-(j-1)/(K-1))."""
    weights = np.array([imbalance ** (-(j - 1) / (k - 1)) for j in range(1, k + 1)])
    return weights / weights.sum()


def rho_s_formula(mu1: float, mu0: float) -> float:
    """Source ID ratio from the ID and OOD score means: mu0 / (1 - mu1 + mu0)."""
    return mu0 / (1.0 - mu1 + mu0)


def affine_rho(rho_raw: float, mu1: float, mu0: float) -> float:
    """Invert the scorer's affine mean response, clamped to [0, 1]."""
    return min(max((rho_raw - mu0) / (mu1 - mu0), 0.0), 1.0)


def nll(fe: np.ndarray, ce: np.ndarray, pi, rho: float) -> float:
    """Open-set negative log likelihood of (pi, rho), constant data term dropped."""
    inner = fe @ (extend(pi, rho) / ce)
    return float(-np.sum(np.log(np.maximum(inner, LIK_FLOOR))))


def map_objective(fe, ce, pi, rho, alpha_in, alpha_out=(1.0, 1.0)) -> float:
    """nll minus the log Dirichlet/Beta prior, normalising constants dropped."""
    pi = np.asarray(pi, dtype=float)
    a1, a2 = alpha_out
    prior = np.sum((np.asarray(alpha_in) - 1.0) * np.log(pi))
    prior += (a1 - 1.0) * np.log(rho) + (a2 - 1.0) * np.log(1.0 - rho)
    return nll(fe, ce, pi, rho) - float(prior)


def em_update(fe, ce, pi, rho, alpha_in=None, alpha_out=(1.0, 1.0)):
    """One open-set EM update of (pi, rho_t): responsibilities over K+1 classes."""
    pi = np.asarray(pi, dtype=float)
    k = pi.size
    n = fe.shape[0]
    w = fe * (extend(pi, rho) / ce)
    g = w / w.sum(axis=1, keepdims=True)
    s = g.sum(axis=0)
    a_in = np.ones(k) if alpha_in is None else np.asarray(alpha_in, dtype=float)
    a1, a2 = alpha_out
    pi_new = (s[:k] + a_in - 1.0) / (n - s[k] + np.sum(a_in - 1.0))
    rho_new = (n - s[k] + a1 - 1.0) / (n + a1 + a2 - 2.0)
    return pi_new, float(rho_new)


def closed_set_objective(f, c, pi, alpha=None) -> float:
    """Closed-set label-shift negative log likelihood (minus a Dirichlet prior)."""
    pi = np.asarray(pi, dtype=float)
    val = -float(np.sum(np.log(np.maximum(f @ (pi / c), LIK_FLOOR))))
    if alpha is not None:
        val -= float(np.sum((np.asarray(alpha) - 1.0) * np.log(pi)))
    return val


def reweight(fe: np.ndarray, c_ext: np.ndarray, pi_ext: np.ndarray):
    """(K+1)-class posteriors reweighted by pi_ext / c_ext, and 1-based argmax labels.

    ``np.argmax`` returns the first maximum, so ties go to the lowest index.
    """
    unnorm = fe * (pi_ext / c_ext)
    g = unnorm / unnorm.sum(axis=1, keepdims=True)
    return g, np.argmax(g, axis=1) + 1


def bbse(source_f, source_y, target_f) -> np.ndarray:
    """Confusion-matrix estimate of pi through ``numpy.linalg.solve``.

    C[i, j] = p(argmax = i, y = j) on the source, q = target argmax
    frequencies, w solves C w = q, and pi is proportional to max(w, 0) * c.
    """
    k = source_f.shape[1]
    pred = np.argmax(source_f, axis=1)
    confusion = np.zeros((k, k))
    np.add.at(confusion, (pred, source_y - 1), 1.0)
    confusion /= source_y.size
    q = np.bincount(np.argmax(target_f, axis=1), minlength=k) / target_f.shape[0]
    w = np.linalg.solve(confusion, q)
    pi = np.maximum(w, 0.0) * confusion.sum(axis=0)
    return pi / pi.sum()


def w_mse(pi_hat, pi_true, c) -> float:
    """Mean squared error of the importance weights pi / c."""
    c = np.asarray(c, dtype=float)
    return float(np.mean((np.asarray(pi_true) / c - np.asarray(pi_hat) / c) ** 2))


def ece(confidence: np.ndarray, hit: np.ndarray, n_bins: int) -> float:
    """Expected calibration error over equal-width bins (ceil(p * B) - 1, clipped)."""
    total = 0.0
    bins = np.clip(np.ceil(confidence * n_bins).astype(int) - 1, 0, n_bins - 1)
    for b in range(n_bins):
        sel = bins == b
        if sel.any():
            gap = abs(np.mean(hit[sel]) - np.mean(confidence[sel]))
            total += sel.sum() / confidence.size * gap
    return float(total)


def grid_lower_neighbours(fe, ce, i: int, j: int, n_side: int, rtol: float = 1e-9) -> list:
    """Neighbours of grid cell (i, j) whose NLL is lower than the cell's own.

    The grid runs over pi_1 (index i) and rho_t (index j), both on
    ``linspace(0, 1, n_side)``; K = 2. Returns (di, dj, nll) for each lower
    neighbour, comparing with a relative tolerance for summation order.
    """
    step = 1.0 / (n_side - 1)

    def at(a, b):
        return nll(fe, ce, [a * step, 1.0 - a * step], b * step)

    centre = at(i, j)
    lower = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            a, b = i + di, j + dj
            if (di, dj) == (0, 0) or not (0 <= a < n_side and 0 <= b < n_side):
                continue
            value = at(a, b)
            if value < centre - rtol * abs(centre):
                lower.append((di, dj, value))
    return lower

