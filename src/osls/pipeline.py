"""End-to-end estimation pipeline and the experiment sweep engine.

The open-set pipeline runs, in order: source class frequencies from labels,
source ID ratio from reference score means, EM for (pi, rho_t), the affine
ratio correction, and the reweighting of the classifier's outputs to the
target. Closed-set baselines (mlls / mapls / bbse) and the uniform
no-estimation baseline plug into the same report shape so sweeps can compare
methods row for row.
"""

from __future__ import annotations

from dataclasses import MISSING, astuple, dataclass, field, fields, replace
from functools import partial
from operator import attrgetter, itemgetter
from typing import Optional, Sequence, Tuple, get_args, get_type_hints

import numpy as np

from . import baselines as bl
from .core import (
    DegenerateSample,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    ValidationError,
    _vector_in,
    extend_distribution,
    json_fields,
    labels_in,
    positive_prior,
    real_in,
    report_dict,
    whole_number,
)
from .em import EmConfig, run_em
from .estimators import ScoreMeans, correct_rho, estimate_rho_s, rescale_mu0
from .metrics import rho_abs_error, w_mse
from .pool import map_in_order
from .simulate import Scenario, ScenarioConfig, ShiftSpec

OSLS_METHODS = ("osls-mle", "osls-map")
CLOSED_SET_METHODS = ("mlls", "mapls", "bbse")
ALL_METHODS = OSLS_METHODS + CLOSED_SET_METHODS + ("uniform",)
# Dirichlet prior strength of osls-map and mapls when no other is given.
DEFAULT_ALPHA = 2.0


# Report fields that are ratios or score means, each in [0, 1].
_UNIT_FIELDS = {"rho_s_hat", "mu1_hat", "mu0_hat", "rho_t_hat", "rho_t_star"}


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Uniform report shape across estimation methods.

    Ratio fields are None for closed-set methods, which do not model the OOD
    class. ``method`` records the effective estimator: an OSLS run whose
    priors are all ones is reported as "osls-mle". ``certificate`` is the EM
    fit's certificate (``osls.em.certificate``), at or below the tolerance
    exactly when ``converged``; reports written before it was added lack it.
    """

    method: str
    k: int = field(metadata={"key": "K"})
    c_hat: ProbabilityVector
    pi_hat: ProbabilityVector
    rho_s_hat: Optional[float] = None
    mu1_hat: Optional[float] = None
    mu0_hat: Optional[float] = None
    rho_t_hat: Optional[float] = None
    rho_t_star: Optional[float] = None
    nll_initial: Optional[float] = None
    nll_final: Optional[float] = None
    iterations: Optional[int] = None
    converged: Optional[bool] = None
    certificate: Optional[float] = None

    @property
    def rho_t(self) -> Optional[float]:
        """The target ratio a correction uses: rho_t_star when reported, else rho_t_hat."""
        return self.rho_t_hat if self.rho_t_star is None else self.rho_t_star

    def to_dict(self) -> dict:
        return report_dict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EstimateResult":
        """Rebuild an estimate from its report; a bad or missing field raises ValidationError."""
        hints = get_type_hints(cls)
        names, kinds, optional = {}, {}, []
        for f in fields(cls):
            key = f.metadata.get("key", f.name)
            names[key] = f.name
            kinds[key] = next((t for t in get_args(hints[f.name]) if t is not type(None)),
                              hints[f.name])
            if f.default is not MISSING:
                optional.append(key)
        values = json_fields(obj, "estimate report", kinds, optional)
        for key in _UNIT_FIELDS & values.keys():
            real_in(f"estimate report field {key!r}", values[key], 0, 1)
        whole_number("estimate report field 'iterations'", values.get("iterations", 0), 0)
        real_in("estimate report field 'certificate'", values.get("certificate", 0.0), 0)
        if values["method"] not in ALL_METHODS:
            raise ValidationError(f"estimate report field 'method' is {values['method']!r}; "
                                  f"expected one of {ALL_METHODS}")
        result = cls(**{names[key]: value for key, value in values.items()})
        if not result.k == result.c_hat.k == result.pi_hat.k:
            raise ValidationError(f"estimate report field 'K' is {result.k}, but c_hat has "
                                  f"{result.c_hat.k} entries and pi_hat {result.pi_hat.k}")
        return result


def _method(name) -> str:
    """``name`` case-folded, which must be one of ALL_METHODS."""
    method = str(name).lower()
    if method not in ALL_METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {ALL_METHODS}")
    return method


def source_class_frequencies(source: RecordSet) -> ProbabilityVector:
    """Empirical ID class frequencies from source ground-truth labels."""
    if source.y is None:
        raise ValidationError("source records need ground-truth labels")
    y = labels_in("source.y", source.y, source.k)  # ID labels only
    counts = np.bincount(y - 1, minlength=source.k).astype(float)
    if np.any(counts == 0):
        missing = int(np.argmax(counts == 0)) + 1
        raise ValidationError(f"source class {missing} has no samples")
    return ProbabilityVector(counts / counts.sum())


def estimate(
    method: str,
    source: RecordSet,
    target: RecordSet,
    *,
    mu0_hat: Optional[float] = None,
    n_ood: Optional[int] = None,
    em_config: Optional[EmConfig] = None,
    mapls_alpha: float = DEFAULT_ALPHA,
    apply_rho_correction: bool = True,
) -> EstimateResult:
    """Run one estimation method and return the uniform report.

    ``mu0_hat`` is the OOD-reference score mean (already rescaled when it
    comes from pseudo-OOD samples); it is required for the osls methods and
    ignored by the closed-set ones. ``em_config``'s ``max_iters`` and ``tol``
    apply to every EM fit (osls, mlls and mapls); its priors apply to the osls
    fits only, and mapls takes ``mapls_alpha``.
    """
    method = _method(method)
    if target.k != source.k:
        raise ValidationError("source and target record sets have different K")
    c_hat = source_class_frequencies(source)
    k = source.k
    em_config = em_config or EmConfig()

    if method in OSLS_METHODS:
        if mu0_hat is None:
            raise ValidationError("osls methods need an OOD reference score mean")
        if method == "osls-map" and em_config.is_mle:
            method = "osls-mle"
        if method == "osls-mle" and not em_config.is_mle:
            raise ValidationError("osls-mle requested but em_config carries non-trivial priors")
        means = ScoreMeans(
            mu1_hat=np.mean(source.h),
            mu0_hat=mu0_hat,
            n_id=len(source),
            n_ood=len(source) if n_ood is None else n_ood,
        )
        rho_s_hat = estimate_rho_s(means)
        source_model = SourceLabelModel(c_hat, rho_s_hat)
        trace = run_em(source_model, target, em_config)
        rho_t_star = None
        if apply_rho_correction:
            rho_t_star = correct_rho(trace.rho_t_final, means.mu1_hat, means.mu0_hat)
        return EstimateResult(
            method=method,
            k=k,
            pi_hat=trace.pi_final,
            c_hat=c_hat,
            rho_s_hat=rho_s_hat,
            mu1_hat=means.mu1_hat,
            mu0_hat=means.mu0_hat,
            rho_t_hat=trace.rho_t_final,
            rho_t_star=rho_t_star,
            nll_initial=float(trace.nll_per_iter[0]),
            nll_final=float(trace.nll_per_iter[-1]),
            iterations=trace.iterations_run,
            converged=trace.converged,
            certificate=trace.certificate,
        )

    if method == "mlls":
        pi_hat = bl.mlls(target, c_hat, em_config.max_iters, tol=em_config.tol).pi_final
    elif method == "mapls":
        alpha = np.full(k, real_in("mapls_alpha", mapls_alpha, 1))
        pi_hat = bl.mapls(target, c_hat, alpha, em_config.max_iters,
                          tol=em_config.tol).pi_final
    elif method == "bbse":
        pred = bl.argmax_labels(source)
        confusion = bl.ConfusionMatrix.from_labels(pred, source.y, k)
        q = bl.predicted_class_frequencies(target)
        pi_hat = bl.bbse(confusion, q)
    else:  # uniform baseline: no estimation, assume uniform labels and r = 1
        pi_hat = ProbabilityVector(np.full(k, 1.0 / k))
        return EstimateResult(method=method, k=k, pi_hat=pi_hat, c_hat=c_hat, rho_t_hat=0.5)
    return EstimateResult(method=method, k=k, pi_hat=pi_hat, c_hat=c_hat)


def correct_records(records: RecordSet, c, pi) -> Tuple[np.ndarray, np.ndarray]:
    """Reweight each row by pi / c and renormalize; returns the posteriors and labels.

    With K+1 entries in ``c`` and ``pi``, extended distributions, the rows are
    the combined outputs [h*f, 1-h], so the posteriors have K+1 columns; with K
    entries they are ``f`` alone. Labels are the 1-based argmax of each row,
    ties broken toward the smallest index, so K+1 means OOD.
    """
    pi = _vector_in("pi", pi).entries
    if pi.size not in (records.k, records.k + 1):
        raise ValidationError(f"records have K={records.k} but pi has {pi.size} entries")
    c = positive_prior(c, pi.size)
    posteriors = records.extended_f() if pi.size > records.k else records.f.copy()
    posteriors *= pi / c
    totals = posteriors.sum(axis=1)
    if np.any(totals <= 0.0):
        raise DegenerateSample(int(np.argmax(totals <= 0.0)))
    posteriors /= totals[:, None]
    return posteriors, posteriors.argmax(axis=1) + 1


def correct_with_estimate(result: EstimateResult, target: RecordSet):
    """Apply the (K+1)-class correction using a pipeline estimate made for the target's K."""
    if result.k != target.k:
        raise ValidationError(f"the estimate is for K={result.k} but the target has K={target.k}")
    if result.rho_s_hat is None or result.rho_t_hat is None:
        raise ValidationError(f"method {result.method!r} does not produce ratio estimates")
    c_ext = extend_distribution(result.c_hat, result.rho_s_hat)
    pi_ext = extend_distribution(result.pi_hat, result.rho_t)
    return correct_records(target, c_ext, pi_ext)


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SweepCell:
    """Aggregated metrics for one (method, shift, r) cell of the grid."""

    method: str
    shift: str
    r: float
    seeds: int
    w_mse_mean: float
    w_mse_std: float
    rho_err_mean: Optional[float]
    rho_err_std: Optional[float]

    def to_dict(self) -> dict:
        return report_dict(self)


def _run_sweep_chunk(methods: list, em_iters: int, chunk: list) -> list:
    """Each point's method results, for consecutive grid points ``(shift, config)`` of one
    seed: the source and OOD reference are drawn once, at the first point, and only the
    target per point.

    Those two draws read only the seed's own streams and the base scenario, never the
    shift or r, so they are the very ones each point would draw alone. The first target
    is drawn before the OOD reference, as ``make_scenario`` draws them, so a sample that
    cannot be scored is named the same way.
    """
    scenario = Scenario(chunk[0][1])
    source, target = scenario.sample_source().records, scenario.sample_target().records
    ood_h = scenario.sample_ood_ref().records.h
    mu0_hat, n_ood = float(np.mean(ood_h)), len(ood_h)
    mle_config = EmConfig(max_iters=em_iters)
    map_config = EmConfig(max_iters=em_iters, alpha_in=np.full(scenario.k, DEFAULT_ALPHA))
    outs = []
    for _, config in chunk:
        if outs:
            scenario = Scenario(config)
            del target  # before the next is drawn: two alive at once raise the peak memory
            target = scenario.sample_target().records
        out = {}
        for method in methods:
            try:
                result = estimate(method, source, target, mu0_hat=mu0_hat,
                                  n_ood=n_ood,
                                  em_config=map_config if method == "osls-map" else mle_config)
                err = w_mse(result.pi_hat, scenario.truth.pi, config.c)
                rho_err = (None if result.rho_t is None
                           else rho_abs_error(result.rho_t, scenario.truth.rho_t))
                out[method] = {"w_mse": err, "rho_err": rho_err}
            except Exception as exc:  # cell failures are recorded, sweep continues
                out[method] = {"error": f"{type(exc).__name__}: {exc}"}
        outs.append(out)
    return outs


def _axis(key: str, values: Sequence, build, same) -> list:
    """``build(value)`` of each of ``values``, which must be some and no two alike by ``same``;
    else ValidationError naming ``key``, the axis as ``run_sweep`` and a sweep config name it."""
    built = []
    for value in values:
        try:
            built.append(build(value))
        except ValidationError as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from None
        if same(built[-1]) in map(same, built[:-1]):
            raise ValidationError(f"config key {key!r}: {value} is repeated")
    if not built:
        raise ValidationError(f"config key {key!r} has no values")
    return built


def run_sweep(
    base: ScenarioConfig,
    shifts: Sequence[str],
    r_values: Sequence[float],
    seeds: Sequence[int],
    methods: Sequence[str],
    *,
    em_iters: int = EmConfig.max_iters,
    workers: int = 1,
) -> Tuple[list, list]:
    """Run the simulate-estimate-evaluate grid; returns (cells, failures).

    The grid is checked whole before any point runs: no axis is empty or repeats
    a value (shifts compared as parsed, r values as numbers, methods case-folded),
    each method is one of ALL_METHODS, and each point's config, ``base`` with its
    shift, r and seed, is built here. A bad value raises ValidationError naming
    its axis. One task is a chunk of one seed's points, consecutive in grid order:
    each seed's points are split into ceil(min(workers, points) / seeds) chunks,
    one per seed at ``workers=1``, and a chunk draws its seed's source and OOD
    reference once and a target per point (``_run_sweep_chunk``). The tasks run on
    ``osls.pool``'s workers, at most ``workers`` and no more than there are usable
    cores or tasks, which never outnumber the points. Their results are put back
    in grid order, and a point's draws depend on its seed and ``base`` alone,
    never on the chunk it ran in, so the result is the same for any worker count.
    Cells aggregate mean and standard deviation across seeds per (method, shift
    as given, r), sorted by that key.
    """
    workers = whole_number("workers", workers, 1)
    methods = _axis("methods", methods, _method, str)
    shifts = _axis("shifts", shifts, lambda text: (text, ShiftSpec.parse(text)),
                   lambda shift: astuple(shift[1]))
    by_r = _axis("r_values", r_values, lambda r: replace(base, r=r), attrgetter("r"))
    points = []  # (shift as given, config), seeds innermost
    for shift, spec in shifts:
        for with_r in by_r:
            configs = _axis("seeds", seeds, lambda seed: replace(with_r, shift=spec, seed=seed),
                            attrgetter("seed"))
            points += [(shift, config) for config in configs]
    n_seeds = len(seeds)
    parts = -(-min(workers, len(points)) // n_seeds)  # chunks per seed, each of one point or more
    chunks = []  # the grid indices of one seed's consecutive points
    for first in range(n_seeds):
        mine = range(first, len(points), n_seeds)
        chunks += [mine[part * len(mine) // parts:(part + 1) * len(mine) // parts]
                   for part in range(parts)]
    run = partial(_run_sweep_chunk, methods, em_iters)
    tasks = [[points[i] for i in chunk] for chunk in chunks]
    outs = [None] * len(points)  # back in grid order
    for chunk, (_, done) in zip(chunks, map_in_order(run, tasks, min(workers, len(tasks)))):
        for i, out in zip(chunk, done):
            outs[i] = out
    scores, failures = {}, []
    for (shift, config), out in zip(points, outs):
        for method, res in out.items():
            if "error" in res:
                failures.append({"method": method, "shift": shift, "r": config.r,
                                 "seed": config.seed, "error": res["error"]})
            else:
                scores.setdefault((method, shift, config.r), []).append(res)
    cells = []
    for (method, shift, r), found in sorted(scores.items(), key=itemgetter(0)):
        vals = [res["w_mse"] for res in found]
        rho_errs = [res["rho_err"] for res in found if res["rho_err"] is not None]
        rho = [float(np.mean(rho_errs)), float(np.std(rho_errs))] if rho_errs else [None, None]
        cells.append(SweepCell(method, shift, r, len(vals), float(np.mean(vals)),
                               float(np.std(vals)), *rho))
    return cells, failures


def pseudo_ood_mu0(scenario: Scenario, features: np.ndarray, gamma: float, T: float) -> float:
    """Pseudo-OOD score mean: blend, score through the scenario oracle, rescale."""
    h = scenario.pseudo_ood_scores(features, gamma)
    return rescale_mu0(float(np.mean(h)), T)
