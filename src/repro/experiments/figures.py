"""Reproduction entry points for every figure of the paper (Figs. 2-7).

Each ``figure*`` function runs the simulation behind one paper figure
and returns a :class:`FigureResult` holding tidy rows (one dict per
plotted point) plus the parameters used. ``FigureResult.render()``
prints the same series the paper plots; ``FigureResult.save()`` writes
JSON/CSV for external plotting.

Defaults are laptop-scale (the paper's full sweeps go to ``n = 10^5``
on a dual-Xeon machine); every knob is exposed so the full-scale runs
remain one call away. EXPERIMENTS.md records the shapes obtained with
the defaults against the paper's reported behaviour.

Every pipeline builds one multi-cell
:class:`~repro.experiments.scheduler.SweepPlan` — one cell per
``(algorithm, channel, n)`` or ``(design, n)`` configuration — and
executes all cells' trial chunks through the sweep engine's single
global work queue, so heterogeneous cells load-balance across workers
with no per-cell barrier. ``workers`` and ``backend`` select the
execution backend (``serial`` / ``process``); results are
bit-identical to the per-cell serial loop for every choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.bounds import (
    theorem1_sublinear_gnc,
    theorem1_sublinear_z,
    theorem2_sublinear,
)
from repro.core.ground_truth import sublinear_k
from repro.core.noise import (
    GaussianQueryNoise,
    NoiselessChannel,
    NoisyChannel,
    ZChannel,
)
from repro.experiments.scheduler import SweepPlan
from repro.experiments.stats import boxplot_stats, geometric_space
from repro.experiments.storage import save_csv, save_json
from repro.experiments.tables import render_table
from repro.utils.rng import RngLike

#: default log-spaced n grid (paper: 10^2 .. 10^5; default stops at 10^4)
DEFAULT_N_VALUES = tuple(geometric_space(100, 10_000, 9))

#: the paper's sublinear exponent used throughout Section V
DEFAULT_THETA = 0.25


def _required_m_rows(cells, samples) -> "List[Dict[str, object]]":
    """Required-m rows for figures 2-4: one per executed sweep cell.

    ``cells`` carries the ``(series, n, k)`` labels in plan order;
    ``samples`` are the matching :class:`RequiredQueriesSample` results.
    """
    return [
        {
            "series": series,
            "n": n,
            "k": k,
            "required_m_median": sample.median,
            "required_m_mean": sample.mean,
            "trials": sample.trials,
            "failures": sample.failures,
        }
        for (series, n, k), sample in zip(cells, samples)
    ]


def _check_distinct(name: str, labels: Sequence[str]) -> None:
    """Reject repeated series labels: they would merge into one series."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"duplicate {name} entries: {repeated}")


def _series_label(algorithm: str, label: str, algorithms) -> str:
    """Series name for a required-m curve.

    Single-algorithm runs (the default greedy-only pipeline) keep the
    historical labels; multi-algorithm runs prefix the algorithm so the
    greedy and AMP required-m curves sit side by side in one figure.
    """
    return label if len(algorithms) == 1 else f"{algorithm} {label}"


@dataclass(frozen=True)
class FigureResult:
    """Tidy result of one figure reproduction."""

    figure: str
    description: str
    params: Dict[str, object]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def render(self) -> str:
        """ASCII table of all rows (the paper's series, as text)."""
        cols = self.columns()
        table = render_table(cols, [[row.get(c, "") for c in cols] for row in self.rows])
        return f"== {self.figure}: {self.description} ==\n{table}"

    def save(self, directory) -> None:
        """Persist as ``<figure>.json`` and ``<figure>.csv``."""
        from pathlib import Path

        directory = Path(directory)
        save_json(directory / f"{self.figure}.json", self)
        save_csv(directory / f"{self.figure}.csv", self.rows, fieldnames=self.columns())

    def series(self, label: str) -> List[Dict[str, object]]:
        """All rows belonging to one labelled series."""
        return [row for row in self.rows if row.get("series") == label]


def figure2(
    *,
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    ps: Sequence[float] = (0.1, 0.3, 0.5),
    theta: float = DEFAULT_THETA,
    trials: int = 5,
    seed: RngLike = 2022,
    check_every: int = 1,
    bound_p: float = 0.1,
    bound_eps: float = 0.05,
    algorithms: Sequence[str] = ("greedy",),
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure 2: required queries vs n for the Z-channel.

    Series: one per flip probability ``p`` (median over trials) plus the
    Theorem 1 dashed bound for ``bound_p`` and ``eps = bound_eps``.
    Pass ``algorithms=("greedy", "amp")`` to plot the AMP required-m
    curve (smallest checked m whose prefix decodes exactly) beside the
    greedy separation rule; series then gain an algorithm prefix.
    """
    plan = SweepPlan()
    cells = []
    for algorithm in algorithms:
        for p in ps:
            channel = ZChannel(p)
            for n in n_values:
                k = sublinear_k(n, theta)
                plan.add_required_queries(
                    n,
                    k,
                    channel,
                    trials=trials,
                    seed=seed,
                    check_every=check_every,
                    algorithm=algorithm,
                )
                cells.append(
                    (_series_label(algorithm, f"p={p:g}", algorithms), n, k)
                )
    rows = _required_m_rows(cells, plan.run(backend=backend, workers=workers))
    for n in n_values:
        rows.append(
            {
                "series": f"theory p={bound_p:g}",
                "n": n,
                "k": sublinear_k(n, theta),
                "required_m_median": theorem1_sublinear_z(n, theta, bound_p, bound_eps),
            }
        )
    return FigureResult(
        figure="fig2",
        description="required queries vs n, Z-channel, theta=%g" % theta,
        params={
            "n_values": list(n_values),
            "ps": list(ps),
            "theta": theta,
            "trials": trials,
            "bound_p": bound_p,
            "bound_eps": bound_eps,
            "algorithms": list(algorithms),
        },
        rows=rows,
    )


def figure3(
    *,
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    lams: Sequence[float] = (1.0,),
    theta: float = DEFAULT_THETA,
    trials: int = 5,
    seed: RngLike = 2022,
    check_every: int = 1,
    include_bound: bool = True,
    bound_eps: float = 0.05,
    algorithms: Sequence[str] = ("greedy",),
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure 3: required queries vs n, noisy query model vs noiseless.

    ``algorithms=("greedy", "amp")`` adds the AMP required-m curves
    beside the greedy ones (algorithm-prefixed series).
    """
    channels = [("without noise", NoiselessChannel())]
    channels += [(f"lambda={lam:g}", GaussianQueryNoise(lam)) for lam in lams]
    plan = SweepPlan()
    cells = []
    for algorithm in algorithms:
        for label, channel in channels:
            for n in n_values:
                k = sublinear_k(n, theta)
                plan.add_required_queries(
                    n,
                    k,
                    channel,
                    trials=trials,
                    seed=seed,
                    check_every=check_every,
                    algorithm=algorithm,
                )
                cells.append(
                    (_series_label(algorithm, label, algorithms), n, k)
                )
    rows = _required_m_rows(cells, plan.run(backend=backend, workers=workers))
    if include_bound:
        for n in n_values:
            rows.append(
                {
                    "series": "theory (Thm 2)",
                    "n": n,
                    "k": sublinear_k(n, theta),
                    "required_m_median": theorem2_sublinear(n, theta, bound_eps),
                }
            )
    return FigureResult(
        figure="fig3",
        description="required queries vs n, noisy query model, theta=%g" % theta,
        params={
            "n_values": list(n_values),
            "lams": list(lams),
            "theta": theta,
            "trials": trials,
            "algorithms": list(algorithms),
        },
        rows=rows,
    )


def figure4(
    *,
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    qs: Sequence[float] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
    theta: float = DEFAULT_THETA,
    trials: int = 5,
    seed: RngLike = 2022,
    check_every: int = 1,
    include_bounds: bool = True,
    bound_eps: float = 0.05,
    centering: str = "oracle",
    algorithms: Sequence[str] = ("greedy",),
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure 4: required queries vs n, general noisy channel with p = q.

    The paper highlights the crossover predicted by the remark after
    Theorem 1: while ``q`` is below order ``k/n`` the channel behaves
    like the Z-channel; once ``q`` dominates ``k/n`` the required number
    of queries rises onto the steeper GNC trajectory. The dashed theory
    series is the GNC bound of Theorem 1.

    Scores are centered with the analysis-side ``"oracle"`` offset
    (Eq. 3-4) by default: with a positive false-positive rate the plain
    ``k/2`` offset of Algorithm 1's line 14 leaves a bias that couples
    with ``Delta*`` fluctuations and inflates the required m far beyond
    the Theorem 1 trajectory (see DESIGN.md, ablation A1).
    """
    plan = SweepPlan()
    cells = []
    for algorithm in algorithms:
        for q in qs:
            channel = NoisyChannel(q, q)
            for n in n_values:
                k = sublinear_k(n, theta)
                plan.add_required_queries(
                    n,
                    k,
                    channel,
                    trials=trials,
                    seed=seed,
                    check_every=check_every,
                    centering=centering,
                    algorithm=algorithm,
                )
                cells.append(
                    (_series_label(algorithm, f"q={q:g}", algorithms), n, k)
                )
    rows = _required_m_rows(cells, plan.run(backend=backend, workers=workers))
    if include_bounds:
        for q in qs:
            for n in n_values:
                rows.append(
                    {
                        "series": f"theory q={q:g}",
                        "n": n,
                        "k": sublinear_k(n, theta),
                        "required_m_median": theorem1_sublinear_gnc(
                            n, theta, q, q, bound_eps
                        ),
                    }
                )
    return FigureResult(
        figure="fig4",
        description="required queries vs n, general noisy channel p=q",
        params={
            "n_values": list(n_values),
            "qs": list(qs),
            "theta": theta,
            "trials": trials,
            "algorithms": list(algorithms),
        },
        rows=rows,
    )


def figure5(
    *,
    n_values: Sequence[int] = (1_000, 10_000),
    ps: Sequence[float] = (0.1, 0.3, 0.5),
    lams: Sequence[float] = (0.0, 1.0, 2.0, 3.0),
    theta: float = DEFAULT_THETA,
    trials: int = 20,
    seed: RngLike = 2022,
    check_every: int = 1,
    algorithms: Sequence[str] = ("greedy",),
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure 5: boxplots of the required m per configuration and n.

    The paper shows ``n in {10^3, 10^4, 10^5}``; the default grid stops
    at ``10^4`` (pass ``n_values=(1000, 10_000, 100_000)`` for the full
    version). One row per (n, configuration) with Tukey boxplot stats;
    ``algorithms=("greedy", "amp")`` adds AMP required-m boxplots
    beside the greedy ones.
    """
    configs = [(f"Z p={p:g}", ZChannel(p)) for p in ps]
    configs += [
        (
            f"lambda={lam:g}",
            GaussianQueryNoise(lam) if lam > 0 else NoiselessChannel(),
        )
        for lam in lams
    ]
    plan = SweepPlan()
    cells = []
    for algorithm in algorithms:
        for n in n_values:
            k = sublinear_k(n, theta)
            for label, channel in configs:
                plan.add_required_queries(
                    n,
                    k,
                    channel,
                    trials=trials,
                    seed=seed,
                    check_every=check_every,
                    algorithm=algorithm,
                )
                cells.append(
                    (_series_label(algorithm, label, algorithms), n, k)
                )
    samples = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = []
    for (series, n, k), sample in zip(cells, samples):
        if not sample.values:
            continue
        stats = boxplot_stats(sample.values)
        rows.append(
            {
                "series": series,
                "n": n,
                "k": k,
                "median": stats.median,
                "q1": stats.q1,
                "q3": stats.q3,
                "whisker_low": stats.whisker_low,
                "whisker_high": stats.whisker_high,
                "outliers": len(stats.outliers),
                "trials": sample.trials,
            }
        )
    return FigureResult(
        figure="fig5",
        description="boxplots of required queries (Z-channel and noisy query)",
        params={
            "n_values": list(n_values),
            "ps": list(ps),
            "lams": list(lams),
            "theta": theta,
            "trials": trials,
            "algorithms": list(algorithms),
        },
        rows=rows,
    )


def figure6(
    *,
    n: int = 1000,
    theta: float = DEFAULT_THETA,
    ps: Sequence[float] = (0.1, 0.3, 0.5),
    m_values: Optional[Sequence[int]] = None,
    trials: int = 100,
    seed: RngLike = 2022,
    algorithms: Sequence[str] = ("greedy", "amp"),
    bound_p: float = 0.1,
    bound_eps: float = 0.1,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure 6: success rate vs m at n=1000, greedy vs AMP, Z-channel.

    The paper's headline comparison: both algorithms show a phase
    transition; AMP's window is narrower and sits at smaller m.

    Series are paired on common instances: every series samples the
    same truth and graph at each ``(m, trial)`` (one seed for all
    cells), and only the channel noise and the decoder differ. The
    sweep draws each instance once and decodes it per series.
    Repeated ``ps`` or ``algorithms`` entries raise ``ValueError``.
    """
    if m_values is None:
        m_values = list(range(25, 601, 25))
    _check_distinct("ps", [f"{p:g}" for p in ps])
    _check_distinct("algorithms", list(algorithms))
    k = sublinear_k(n, theta)
    plan = SweepPlan()
    cells = []
    for algorithm in algorithms:
        for p in ps:
            plan.add_success_curve(
                n,
                k,
                ZChannel(p),
                m_values,
                algorithm=algorithm,
                trials=trials,
                seed=seed,
            )
            cells.append(f"{algorithm} p={p:g}")
    curves = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = [
        {
            "series": series,
            "m": m,
            "success_rate": rate,
            "n": n,
            "k": k,
            "trials": trials,
        }
        for series, curve in zip(cells, curves)
        for m, rate in zip(curve.m_values, curve.success_rates)
    ]
    bound = theorem1_sublinear_z(n, theta, bound_p, bound_eps)
    rows.append(
        {
            "series": f"theory p={bound_p:g}",
            "m": bound,
            "success_rate": None,
            "n": n,
            "k": k,
        }
    )
    return FigureResult(
        figure="fig6",
        description="success rate vs m (greedy vs AMP), Z-channel, n=%d" % n,
        params={
            "n": n,
            "theta": theta,
            "ps": list(ps),
            "m_values": list(m_values),
            "trials": trials,
            "algorithms": list(algorithms),
        },
        rows=rows,
    )


def figure7(
    *,
    n: int = 1000,
    theta: float = DEFAULT_THETA,
    ps: Sequence[float] = (0.1, 0.3, 0.5),
    m_values: Optional[Sequence[int]] = None,
    trials: int = 100,
    seed: RngLike = 2022,
    bound_p: float = 0.1,
    bound_eps: float = 0.1,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure 7: overlap (fraction of identified 1-agents) vs m, greedy.

    Series are paired on common instances, as in :func:`figure6`: the
    ``p`` series share each ``(m, trial)``'s truth and graph and differ
    only in channel noise. Repeated ``ps`` entries raise ``ValueError``.
    """
    if m_values is None:
        m_values = list(range(25, 601, 25))
    _check_distinct("ps", [f"{p:g}" for p in ps])
    k = sublinear_k(n, theta)
    plan = SweepPlan()
    cells = []
    for p in ps:
        plan.add_success_curve(
            n,
            k,
            ZChannel(p),
            m_values,
            algorithm="greedy",
            trials=trials,
            seed=seed,
        )
        cells.append(f"p={p:g}")
    curves = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = [
        {
            "series": series,
            "m": m,
            "overlap": overlap,
            "success_rate": rate,
            "n": n,
            "k": k,
            "trials": trials,
        }
        for series, curve in zip(cells, curves)
        for m, overlap, rate in zip(
            curve.m_values, curve.overlaps, curve.success_rates
        )
    ]
    bound = theorem1_sublinear_z(n, theta, bound_p, bound_eps)
    rows.append(
        {
            "series": f"theory p={bound_p:g}",
            "m": bound,
            "overlap": None,
            "n": n,
            "k": k,
        }
    )
    return FigureResult(
        figure="fig7",
        description="overlap vs m (greedy), Z-channel, n=%d" % n,
        params={
            "n": n,
            "theta": theta,
            "ps": list(ps),
            "m_values": list(m_values),
            "trials": trials,
        },
        rows=rows,
    )


def figure_design_ablation(
    *,
    n_values: Sequence[int] = (300, 600, 1200),
    theta: float = DEFAULT_THETA,
    p: float = 0.1,
    level: float = 0.5,
    m_points: int = 10,
    trials: int = 20,
    seed: RngLike = 2022,
    gamma: Optional[int] = None,
    designs: Sequence[str] = ("replacement", "regular"),
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Figure-level design ablation: required m per pooling design.

    Compares the paper's with-replacement multigraph against the
    constant-column-weight ``sample_regular_design`` family (refs.
    [4, 33] of the paper) at matched edge budget: for every query
    count ``m`` on a per-``n`` geometric grid, both designs spend
    ``m * Gamma`` edges (the regular design's agent degree is tuned to
    ``m * Gamma / n``, so its expected query size equals the
    multigraph's fixed ``Gamma``). The regular design has no
    incremental form — queries are coupled through the constant column
    weight — so the required-m proxy is the success-curve crossing:
    the smallest grid ``m`` whose exact-recovery rate reaches
    ``level`` under the greedy decoder, one curve per ``(design, n)``
    cell, all cells routed through the sweep engine's global queue
    like figures 2-5.

    One row per ``(design, n)``: ``required_m_p50`` is the crossing
    (``None`` when the level is never reached on the grid).
    """
    plan = SweepPlan()
    cells = []
    for design in designs:
        for n in n_values:
            k = sublinear_k(n, theta)
            m_values = geometric_space(max(8, n // 16), 2 * n, m_points)
            plan.add_success_curve(
                n,
                k,
                ZChannel(p),
                m_values,
                algorithm="greedy",
                trials=trials,
                seed=seed,
                gamma=gamma,
                design=design,
            )
            cells.append((design, n, k))
    curves = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = [
        {
            "series": design,
            "n": n,
            "k": k,
            "required_m_p50": curve.crossing(level),
            "trials": trials,
        }
        for (design, n, k), curve in zip(cells, curves)
    ]
    return FigureResult(
        figure="ablation_design",
        description=(
            "required m (success-rate crossing at %g) per pooling design, "
            "Z-channel p=%g" % (level, p)
        ),
        params={
            "n_values": list(n_values),
            "theta": theta,
            "p": p,
            "level": level,
            "m_points": m_points,
            "trials": trials,
            "designs": list(designs),
        },
        rows=rows,
    )


def figure_robustness_degradation(
    *,
    n: int = 300,
    theta: float = DEFAULT_THETA,
    p: float = 0.1,
    m: Optional[int] = None,
    kind: str = "erasure",
    fault_rates: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    outlier_scale: float = 5.0,
    algorithms: Sequence[str] = ("greedy", "amp", "twostage"),
    trials: int = 12,
    seed: RngLike = 2022,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Robustness figure: decoder quality under rising measurement corruption.

    One success-curve cell per ``(algorithm, fault_rate)`` at a fixed
    query budget ``m`` (default ``0.6 n``, comfortably above the clean
    phase transition), with a seeded :class:`CorruptionModel` of the
    chosen ``kind`` (``"erasure"`` — results go missing, ``"flip"`` —
    adversarial mirror flips, ``"outlier"`` — heavy-tailed Cauchy
    shifts, ``"dead"`` — pool-agents die and take their queries along)
    applied post-channel. The repair path is the point: the plain
    greedy decoder degrades first, the channel-corrected two-stage
    decoder holds longer, and AMP holds longest.
    """
    from repro.core.corruption import CorruptionModel

    kinds = {
        "erasure": lambda r: CorruptionModel(erasure_rate=r),
        "flip": lambda r: CorruptionModel(flip_rate=r),
        "outlier": lambda r: CorruptionModel(
            outlier_rate=r, outlier_scale=outlier_scale
        ),
        "dead": lambda r: CorruptionModel(dead_agent_rate=r),
    }
    if kind not in kinds:
        raise ValueError(f"unknown corruption kind {kind!r}; valid: {sorted(kinds)}")
    k = sublinear_k(n, theta)
    if m is None:
        m = max(60, int(round(0.6 * n)))
    plan = SweepPlan()
    cells = []
    for algorithm in algorithms:
        for rate in fault_rates:
            plan.add_success_curve(
                n,
                k,
                ZChannel(p),
                [m],
                algorithm=algorithm,
                trials=trials,
                seed=seed,
                corruption=kinds[kind](rate),
            )
            cells.append((algorithm, rate))
    curves = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = [
        {
            "series": algorithm,
            "fault_rate": rate,
            "success_rate": curve.success_rates[0],
            "overlap": curve.overlaps[0],
            "n": n,
            "k": k,
            "m": m,
            "trials": trials,
        }
        for (algorithm, rate), curve in zip(cells, curves)
    ]
    return FigureResult(
        figure="robustness_degradation",
        description=(
            "decoder degradation under %s corruption (greedy vs AMP vs "
            "two-stage), Z p=%g, n=%d, m=%d" % (kind, p, n, m)
        ),
        params={
            "n": n,
            "theta": theta,
            "p": p,
            "m": m,
            "kind": kind,
            "fault_rates": list(fault_rates),
            "trials": trials,
            "algorithms": list(algorithms),
        },
        rows=rows,
    )


def figure_robustness_loss(
    *,
    n: int = 128,
    k: int = 4,
    p: float = 0.1,
    m: int = 220,
    drop_rates: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.7),
    delay: float = 0.0,
    max_delay: int = 0,
    trials: int = 8,
    seed: RngLike = 55,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Robustness figure: Algorithm 1 under query-broadcast message loss.

    The paper assumes reliable synchronous links; this figure
    quantifies what the distributed protocol loses without them. One
    ``algorithm="distributed"`` cell per drop rate, each with a seeded
    :class:`FaultSpec` injecting i.i.d. loss (and optional bounded
    delay) on the query-result broadcasts. Because a dropped broadcast
    merely removes one query result from one agent's neighborhood sum,
    losing a fraction ``d`` of messages behaves like running with
    ``(1-d) m`` effective queries — quality degrades gracefully rather
    than collapsing. Network metrics (messages, dropped, rounds) come
    from the per-cell :class:`NetworkMetrics` fold.
    """
    from repro.core.corruption import FaultSpec

    plan = SweepPlan()
    for drop in drop_rates:
        plan.add_success_curve(
            n,
            k,
            ZChannel(p),
            [m],
            algorithm="distributed",
            trials=trials,
            seed=seed,
            fault=FaultSpec(drop=drop, delay=delay, max_delay=max_delay),
        )
    curves = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = []
    for drop, curve in zip(drop_rates, curves):
        metrics = curve.meta["metrics"][0]
        rows.append(
            {
                "series": "lossy-broadcast",
                "drop_rate": drop,
                "success_rate": curve.success_rates[0],
                "overlap": curve.overlaps[0],
                "mean_dropped": metrics["dropped"],
                "mean_messages": metrics["messages"],
                "mean_rounds": metrics["rounds"],
                "n": n,
                "m": m,
                "trials": trials,
            }
        )
    return FigureResult(
        figure="robustness_loss",
        description=(
            "Algorithm 1 under query-broadcast loss (n=%d, m=%d, Z p=%g)"
            % (n, m, p)
        ),
        params={
            "n": n,
            "k": k,
            "p": p,
            "m": m,
            "drop_rates": list(drop_rates),
            "delay": delay,
            "max_delay": max_delay,
            "trials": trials,
        },
        rows=rows,
    )


def figure_robustness_comm(
    *,
    n_values: Sequence[int] = (64, 128, 256),
    theta: float = DEFAULT_THETA,
    p: float = 0.1,
    m_fraction: float = 0.4,
    trials: int = 4,
    seed: RngLike = 71,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FigureResult:
    """Robustness figure: communication bill vs n, Algorithm 1 vs AMP.

    The paper's efficiency argument (Sections III and VI): greedy needs
    "only one information exchange per network node" while AMP
    "requires an information flow through the whole communication
    network within multiple rounds". One ``distributed`` and one
    ``distributed_amp`` cell per ``n`` at the same query budget
    (``m = m_fraction * n``); rounds / messages / bits come from the
    per-cell :class:`NetworkMetrics` fold, next to the success rates
    the budgets buy.
    """
    plan = SweepPlan()
    cells = []
    for n in n_values:
        k = sublinear_k(n, theta)
        m = max(40, int(round(m_fraction * n)))
        for algorithm in ("distributed", "distributed_amp"):
            plan.add_success_curve(
                n,
                k,
                ZChannel(p),
                [m],
                algorithm=algorithm,
                trials=trials,
                seed=seed,
            )
            cells.append((algorithm, n, k, m))
    curves = plan.run(backend=backend, workers=workers)
    rows: List[Dict[str, object]] = []
    for (algorithm, n, k, m), curve in zip(cells, curves):
        metrics = curve.meta["metrics"][0]
        rows.append(
            {
                "series": algorithm,
                "n": n,
                "k": k,
                "m": m,
                "success_rate": curve.success_rates[0],
                "mean_rounds": metrics["rounds"],
                "mean_messages": metrics["messages"],
                "mean_bits": metrics["bits"],
                "trials": trials,
            }
        )
    return FigureResult(
        figure="robustness_comm",
        description=(
            "communication bill vs n: Algorithm 1 vs message-passing AMP, "
            "Z p=%g" % p
        ),
        params={
            "n_values": list(n_values),
            "theta": theta,
            "p": p,
            "m_fraction": m_fraction,
            "trials": trials,
        },
        rows=rows,
    )


FIGURES = {
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "ablation_design": figure_design_ablation,
    "robustness_degradation": figure_robustness_degradation,
    "robustness_loss": figure_robustness_loss,
    "robustness_comm": figure_robustness_comm,
}


def run_figure(name: str, **kwargs) -> FigureResult:
    """Dispatch a figure reproduction by name (``fig2`` ... ``fig7``,
    ``ablation_design``, ``robustness_*``)."""
    try:
        fn = FIGURES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown figure {name!r}; valid: {sorted(FIGURES)}") from None
    return fn(**kwargs)


__all__ = [
    "DEFAULT_N_VALUES",
    "DEFAULT_THETA",
    "FigureResult",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure_design_ablation",
    "figure_robustness_degradation",
    "figure_robustness_loss",
    "figure_robustness_comm",
    "FIGURES",
    "run_figure",
]
