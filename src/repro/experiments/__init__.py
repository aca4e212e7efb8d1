"""Experiment harness: figure reproductions, sweeps, statistics, storage."""

from repro.experiments.figures import (
    DEFAULT_N_VALUES,
    DEFAULT_THETA,
    FIGURES,
    FigureResult,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure_design_ablation,
    run_figure,
)
from repro.experiments.parallel import (
    WORKERS_ENV,
    resolve_workers,
    shutdown_pool,
)
from repro.experiments.scheduler import (
    BACKENDS,
    BACKEND_ENV,
    SweepExecutor,
    SweepPlan,
    resolve_backend,
)
from repro.experiments.checkpoint import (
    CHECKPOINT_ENV,
    CheckpointMismatch,
    SweepCheckpoint,
    plan_fingerprint,
)
from repro.experiments.runner import (
    ALGORITHMS,
    REQUIRED_QUERIES_ALGORITHMS,
    RequiredQueriesSample,
    SuccessCurve,
    required_queries_trials,
    run_many,
    success_rate_curve,
)
from repro.experiments.stats import (
    BoxplotStats,
    binomial_confidence,
    boxplot_stats,
    geometric_space,
)
from repro.experiments.plots import ascii_plot, plot_figure_result
from repro.experiments.storage import (
    load_csv,
    load_json,
    load_required_queries_sample,
    save_csv,
    save_json,
)
from repro.experiments.tables import render_kv, render_table

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
    "FIGURES",
    "run_figure",
    "BACKENDS",
    "BACKEND_ENV",
    "SweepPlan",
    "SweepExecutor",
    "resolve_backend",
    "CHECKPOINT_ENV",
    "CheckpointMismatch",
    "SweepCheckpoint",
    "plan_fingerprint",
    "ALGORITHMS",
    "REQUIRED_QUERIES_ALGORITHMS",
    "RequiredQueriesSample",
    "SuccessCurve",
    "required_queries_trials",
    "success_rate_curve",
    "run_many",
    "WORKERS_ENV",
    "resolve_workers",
    "shutdown_pool",
    "BoxplotStats",
    "boxplot_stats",
    "binomial_confidence",
    "geometric_space",
    "save_json",
    "load_json",
    "save_csv",
    "load_csv",
    "load_required_queries_sample",
    "render_table",
    "render_kv",
    "ascii_plot",
    "plot_figure_result",
]
