"""Names the command line offers and the sweep harness dispatches on.

Defined once for both: :mod:`repro.cli` builds its parser from them
without importing :mod:`repro.experiments` (so ``repro serve`` starts
on the service alone), and the harness keys its registries by them.
The module imports nothing.
"""

#: figure reproductions, in the order of
#: :data:`repro.experiments.figures.FIGURES`
FIGURE_NAMES = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation_design",
    "robustness_degradation", "robustness_loss", "robustness_comm",
)

#: algorithms with a required-number-of-queries form (Figures 2-5): the
#: harness's and the CLI's ``--algorithm`` choices for required-m
#: sweeps. ``twostage`` runs the prefix-replay exact-decode scan (see
#: :func:`repro.experiments.parallel._required_queries_scan_chunk`).
REQUIRED_QUERIES_ALGORITHMS = ("greedy", "amp", "twostage")

#: execution backends of :mod:`repro.experiments.scheduler`
BACKENDS = ("serial", "process")

__all__ = ["BACKENDS", "FIGURE_NAMES", "REQUIRED_QUERIES_ALGORITHMS"]
