"""Output checks for each workload, built on the reference computations.

Every check returns a list of failure messages; an empty list means the
output passed. Tolerances are fixed here and cover summation order only,
except where a bound against the simulator's truth is stated.
"""

from __future__ import annotations

import numpy as np

import reference as ref

SIMPLEX_TOL = 1e-9
# Relative tolerance for recomputed objectives (sum of ~1e5 logs in another order).
NLL_RTOL = 1e-9
# Absolute tolerance for recomputed probabilities and metrics.
VALUE_TOL = 1e-12
# Stated bounds against the simulator's truth for the cli-jsonl scenario (K=10, ring
# radius 4, 4e4 target rows); 12 seeds gave at most 0.0039 and 0.0013.
RHO_T_ABS_MAX = 0.01
W_MSE_MAX = 0.02
# A tol fit counts as a fixed point when one more EM update moves it less than this.
FIXED_POINT_TOL = 1e-6
# Criterion c01's per-coordinate tolerance between EM and the grid argmin.
GRID_TOL = 2e-3


def _close(a, b, tol=VALUE_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


def _on_simplex(rows: np.ndarray) -> np.ndarray:
    """Boolean per row: entries >= -tol and sum within tol of 1."""
    rows = np.atleast_2d(rows)
    return (rows >= -SIMPLEX_TOL).all(axis=1) & (np.abs(rows.sum(axis=1) - 1.0) <= SIMPLEX_TOL)


def check_predictions(name: str, f, h) -> list:
    errors = []
    bad = np.flatnonzero(~_on_simplex(f))
    if bad.size:
        errors.append(f"{name}: row {bad[0]} of f is off the simplex")
    if np.any(h < 0.0) or np.any(h > 1.0):
        errors.append(f"{name}: an h value lies outside [0, 1]")
    return errors


def check_simulate(data: dict, k: int, n_source: int, n_target: int, n_ood_ref: int,
                   r: float, imbalance: float) -> list:
    """Row counts, exact-ratio target split, long-tailed truth, simplex rows."""
    errors = []
    (fs, hs, ys), (ft, ht, yt), (fo, ho, yo) = data["source"], data["target"], data["ood"]
    truth = data["truth"]
    n_id = int(np.rint(n_target / (1.0 + r)))
    n_ood = int(np.rint(r * n_id))
    for name, got, want in (("source", len(hs), n_source), ("ood_ref", len(ho), n_ood_ref),
                            ("target", len(ht), n_id + n_ood)):
        if got != want:
            errors.append(f"simulate: {name} has {got} rows, config implies {want}")
    if int(np.sum(yt == k + 1)) != n_ood:
        errors.append(f"simulate: target holds {int(np.sum(yt == k + 1))} OOD rows, "
                      f"exact-ratio rule gives {n_ood}")
    if np.any((ys < 1) | (ys > k)) or np.any(yo != k + 1):
        errors.append("simulate: source labels must be ID and ood_ref labels OOD")
    if not np.allclose(truth["pi"], ref.lt_prior(k, imbalance), rtol=0.0, atol=VALUE_TOL):
        errors.append("simulate: truth pi is not the normalised long-tailed prior")
    if not _close(truth["rho_t"], 1.0 / (1.0 + r)):
        errors.append("simulate: truth rho_t is not 1 / (1 + r)")
    for name, (f, h, _) in (("source", data["source"]), ("target", data["target"]),
                            ("ood_ref", data["ood"])):
        errors += check_predictions(f"simulate {name}", f, h)
    return errors


def source_model(data: dict, report: dict):
    """Reference c_ext from the report's rho_s_hat and the source label counts."""
    _, _, ys = data["source"]
    c = ref.class_frequencies(ys, report["K"])
    return c, ref.extend(c, report["rho_s_hat"])


def check_estimate(report: dict, data: dict) -> list:
    """An osls estimate report against file means, a separate NLL and the truth."""
    errors = []
    truth = data["truth"]
    fs, hs, ys = data["source"]
    ft, ht, _ = data["target"]
    _, ho, _ = data["ood"]
    pi_hat = np.asarray(report["pi_hat"], dtype=float)
    if pi_hat.size != report["K"] or not _on_simplex(pi_hat)[0]:
        errors.append("estimate: pi_hat is not a point of the K-simplex")
        return errors
    c, ce = source_model(data, report)
    if not np.allclose(report["c_hat"], c, rtol=0.0, atol=VALUE_TOL):
        errors.append("estimate: c_hat differs from the source label frequencies")
    mu1, mu0 = float(np.mean(hs)), float(np.mean(ho))
    if not (_close(report["mu1_hat"], mu1) and _close(report["mu0_hat"], mu0)):
        errors.append("estimate: score means differ from the file means")
    if not _close(report["rho_s_hat"], ref.rho_s_formula(mu1, mu0)):
        errors.append("estimate: rho_s_hat != mu0 / (1 - mu1 + mu0)")
    if report["nll_final"] > report["nll_initial"]:
        errors.append("estimate: nll_final exceeds nll_initial")
    fe = ref.extended_outputs(ft, ht)
    nll = ref.nll(fe, ce, pi_hat, report["rho_t_hat"])
    if not _close(report["nll_final"], nll, NLL_RTOL):
        errors.append(f"estimate: nll_final {report['nll_final']!r} != recomputed {nll!r}")
    if abs(report["rho_t_hat"] - truth["rho_t"]) > RHO_T_ABS_MAX:
        errors.append(f"estimate: |rho_t_hat - rho_t| > {RHO_T_ABS_MAX}")
    if ref.w_mse(pi_hat, truth["pi"], truth["c"]) > W_MSE_MAX:
        errors.append(f"estimate: w_mse against the truth exceeds {W_MSE_MAX}")
    if "rho_t_star" in report and not _close(
        report["rho_t_star"], ref.affine_rho(report["rho_t_hat"], mu1, mu0)
    ):
        errors.append("estimate: rho_t_star is not the affine correction of rho_t_hat")
    return errors


def selected_rho(report: dict) -> float:
    """The target ratio a correction uses: rho_t_star when reported, else rho_t_hat."""
    return report["rho_t_star"] if report.get("rho_t_star") is not None else report["rho_t_hat"]


def check_corrected(g, y_hat, y, report: dict, c_ext, target) -> list:
    """Corrected rows against a separate reweighting at the report's selected ratio."""
    errors = []
    ft, ht, yt = target
    if g.shape != (ht.size, report["K"] + 1):
        return [f"correct: posteriors have shape {g.shape}, expected {(ht.size, report['K'] + 1)}"]
    pi_ext = ref.extend(report["pi_hat"], selected_rho(report))
    g_ref, labels_ref = ref.reweight(ref.extended_outputs(ft, ht), c_ext, pi_ext)
    diff = np.abs(g - g_ref).max(axis=1)
    if diff.max() > VALUE_TOL:
        errors.append(f"correct: row {int(diff.argmax())} differs from the reweighting "
                      f"by {diff.max():.3g}")
    first_max = np.argmax(g, axis=1) + 1
    if np.any(y_hat != first_max):
        errors.append(f"correct: y_hat of row {int(np.argmax(y_hat != first_max))} is not "
                      "the lowest-index argmax of g")
    top2 = np.sort(g_ref, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > VALUE_TOL
    if np.any((y_hat != labels_ref) & clear):
        errors.append("correct: y_hat disagrees with the reference argmax")
    if yt is not None and (y is None or np.any(y != yt)):
        errors.append("correct: carried labels differ from the target labels")
    return errors


def check_evaluate(obj: dict, report: dict, truth: dict, g, y_hat, y, n_bins: int) -> list:
    """Evaluate's w_mse, ratio errors, top1 and ece against separate computations."""
    errors = []
    rows = {row["source"]: row for row in obj["rows"]}
    est = rows.get(report["method"], {})
    corr = rows.get("corrected", {})
    want = {
        "w_mse": ref.w_mse(report["pi_hat"], truth["pi"], truth["c"]),
        "rho_t_abs_err": abs(report["rho_t_hat"] - truth["rho_t"]),
        "rho_t_star_abs_err": abs(report["rho_t_star"] - truth["rho_t"]),
    }
    for name, value in want.items():
        if name not in est or not _close(est[name], value):
            errors.append(f"evaluate: {name} differs from the separate computation")
    hit = (y_hat == y).astype(float)
    if "top1" not in corr or not _close(corr["top1"], hit.mean()):
        errors.append("evaluate: top1 differs from the separate computation")
    if "ece" not in corr or not _close(corr["ece"], ref.ece(g.max(axis=1), hit, n_bins)):
        errors.append("evaluate: ece differs from the separate computation")
    return errors


def check_osls_fit(name: str, result, fe, ce, c, alpha_in=None) -> list:
    """An open-set fit does not raise its objective above the starting point's."""
    errors = []
    pi = result.pi_hat.entries
    start_pi, start_rho = c, result.rho_s_hat
    if alpha_in is None:
        start, end = ref.nll(fe, ce, start_pi, start_rho), ref.nll(fe, ce, pi, result.rho_t_hat)
    else:
        start = ref.map_objective(fe, ce, start_pi, start_rho, alpha_in)
        end = ref.map_objective(fe, ce, pi, result.rho_t_hat, alpha_in)
    if end > start + NLL_RTOL * max(1.0, abs(start)):
        errors.append(f"{name}: objective {end!r} exceeds its start value {start!r}")
    if result.nll_final > result.nll_initial:
        errors.append(f"{name}: reported nll_final exceeds nll_initial")
    return errors


def check_fixed_point(name: str, result, fe, ce) -> list:
    """One separate EM update from the fit moves it by less than FIXED_POINT_TOL."""
    pi, rho = result.pi_hat.entries, result.rho_t_hat
    pi_new, rho_new = ref.em_update(fe, ce, pi, rho)
    move = max(float(np.abs(pi_new - pi).max()), abs(rho_new - rho))
    if move >= FIXED_POINT_TOL:
        return [f"{name}: one EM update moves the fit by {move:.3g}"]
    return []


def check_closed_set_fit(name: str, pi_hat, f, c, alpha=None) -> list:
    """A closed-set fit's objective does not exceed its value at pi = c."""
    start = ref.closed_set_objective(f, c, c, alpha)
    end = ref.closed_set_objective(f, c, pi_hat, alpha)
    if end > start + NLL_RTOL * max(1.0, abs(start)):
        return [f"{name}: objective {end!r} exceeds its start value {start!r}"]
    return []


def check_bbse(pi_hat, source_f, source_y, target_f) -> list:
    want = ref.bbse(source_f, source_y, target_f)
    if np.abs(np.asarray(pi_hat) - want).max() > 1e-9:
        return ["bbse: pi_hat differs from numpy.linalg.solve of the confusion system"]
    return []


def check_sweep(obj: dict, methods, shifts, r_values, n_seeds: int) -> list:
    """Every cell present with all seeds, no failures, osls-mle beats uniform on lt."""
    errors = [f"sweep: failed cell {f}" for f in obj.get("failures", [])]
    cells = {(c["method"], c["shift"], float(c["r"])): c for c in obj["cells"]}
    for method in methods:
        for shift in shifts:
            for r in r_values:
                cell = cells.get((method, shift, float(r)))
                if cell is None or cell["seeds"] != n_seeds:
                    errors.append(f"sweep: cell {(method, shift, r)} missing or short of seeds")
    for shift in shifts:
        if not shift.startswith("lt"):
            continue
        for r in r_values:
            mle = cells.get(("osls-mle", shift, float(r)))
            uni = cells.get(("uniform", shift, float(r)))
            if mle and uni and not mle["w_mse_mean"] < uni["w_mse_mean"]:
                errors.append(f"sweep: osls-mle w_mse is not below uniform on {(shift, r)}")
    return errors


def check_grid(fe, ce, p1, rho, value, n_side, em_pi1, em_rho) -> list:
    """EM versus the grid argmin: distance, recomputed NLL and a local minimum."""
    errors = []
    if abs(p1 - em_pi1) > GRID_TOL or abs(rho - em_rho) > GRID_TOL:
        errors.append(f"oracle: EM ({em_pi1:.5f}, {em_rho:.5f}) is more than {GRID_TOL} "
                      f"from the grid argmin ({p1:.5f}, {rho:.5f})")
    if not _close(value, ref.nll(fe, ce, [p1, 1.0 - p1], rho), NLL_RTOL):
        errors.append("oracle: the argmin's NLL differs from the separate computation")
    i, j = int(round(p1 * (n_side - 1))), int(round(rho * (n_side - 1)))
    lower = ref.grid_lower_neighbours(fe, ce, i, j, n_side)
    if lower:
        errors.append(f"oracle: grid cell ({i}, {j}) has a lower neighbour {lower[0]}")
    return errors
