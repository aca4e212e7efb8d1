"""Trial orchestration: repeated independent runs of the algorithms.

All experiment entry points funnel through two primitives:

* :func:`required_queries_trials` — repeated runs of the paper's
  incremental required-number-of-queries procedure (Figures 2-5);
* :func:`success_rate_curve` — success-rate / overlap curves over a
  grid of fixed query counts ``m`` (Figures 6-7), for the greedy
  decoder, AMP, or the full distributed protocol.

Each trial gets an independent child generator spawned from the root
seed (see :mod:`repro.utils.rng`), so experiments are reproducible and
embarrassingly parallel in structure.

Both primitives run vectorized simulators: graphs are sampled in one
RNG call, the incremental procedure runs in geometric-growth blocks, and fixed-``m`` trials are scored/decoded as
stacked computations. Every fixed-``m`` path is bit-for-bit
seed-compatible with the per-trial truth/graph/channel/decode loop.
The chunked incremental simulator is seed-compatible with the
query-by-query procedure only for channels that draw no per-query
noise; on the others it is a different, equally valid sample of the
same process (``tests/test_batch.py`` checks the two agree in
distribution).

Algorithm support
-----------------
Fixed-``m`` trials (:func:`success_rate_curve`) and required-m trials
(:func:`required_queries_trials`) dispatch per algorithm:

===================  ==================================================
algorithm            simulator
===================  ==================================================
``greedy``           fixed-m: one block-diagonal instance stack per
                     chunk (:func:`repro.core.batch.
                     draw_instance_stack`), stacked scores decoded by
                     :func:`repro.core.scores.decode_top_k_stacked`;
                     required-m:
                     :class:`~repro.core.batch.BatchTrialRunner`'s
                     chunked incremental simulator
``amp``              fixed-m: the same instance stack, decoded by
                     :func:`repro.amp.batch_amp.run_amp_prepared`;
                     required-m: prefix-replay ascending scan with
                     stacked probe rounds
                     (:func:`repro.amp.batch_amp.required_queries_amp`)
``distributed``      fixed-m per-trial loop (no stacked or required-m
                     form); ``fault=`` injects seeded message drop/delay
``distributed_amp``  fixed-m per-trial loop with the AMP communication
                     bill in cell metrics
``twostage``         fixed-m per-trial loop; required-m via the
                     prefix-replay exact-decode scan
===================  ==================================================

A ``corruption=`` model on either primitive runs the per-trial loop
(fixed-m) or the prefix-replay scan (required-m); the fixed-m stacked
simulators never see corrupted cells, and a corrupted AMP required-m
cell stacks its probes as an honest one does.

The stacked greedy path covers ``algorithm_kwargs`` of ``centering``
in ``("half_k", "oracle")``; any other greedy keyword runs the
seed-compatible per-trial loop, so results never depend on which path
ran. AMP takes ``denoiser`` and ``config`` only, and always runs
stacked. Both stacked paths run through
:func:`repro.experiments.parallel._fixed_m_group`, where sibling cells
on equal seeds share one instance stack. Required-m runs exist for
``greedy`` (the paper's incremental separation stopping rule) and
``amp`` ("smallest checked m whose prefix decodes exactly": one
ascending scan that returns the m a brute-force scan would, stacking
each round's probes block-diagonally). The greedy-only ``centering``
knob is ignored by the AMP required-m path.

Sweep engine and trial sharding
-------------------------------
Both primitives are thin **one-cell sweep plans** on the execution
engine of :mod:`repro.experiments.scheduler`: each call pre-spawns the
serial path's per-trial child seeds, explodes them into contiguous
order-preserving chunks, runs the chunks on a pluggable backend
(``serial`` / ``process``), and merges outcomes back in
trial order with the serial accumulation code. Every trial is a pure
function of its own child seed, so results are bit-identical for any
backend, worker count and algorithm.

``workers`` (default ``None``: the ``REPRO_WORKERS`` environment
variable, else serial; ``0`` means one worker per CPU) sizes the
``process`` backend's pool; ``backend`` (default ``None``: the
``REPRO_BACKEND`` environment variable, else ``process`` when
``workers > 1`` and ``serial`` otherwise) selects where chunks run.
The ``process`` backend has one dispatch path: each chunk travels
through the pool pipe with its cell's spec, seeds and grid indices.
Multi-cell sweeps — the figure pipelines — build one
:class:`~repro.experiments.scheduler.SweepPlan` with many cells so all
cells' chunks share one global work queue (no per-cell barrier).

Sharding helps when per-trial work dominates dispatch overhead (large
``n``, dense ``gamma``, many trials); for small instances or few trials
the serial path is faster — the pool pays a one-time start-up per
worker (a fork from the preloaded fork server on Linux, an interpreter
start plus an import under ``spawn`` elsewhere) plus ~1 ms of pickling
per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.amp import AMPConfig, run_amp
from repro.core.greedy import greedy_reconstruct
from repro.core.noise import Channel
from repro.core.types import ReconstructionResult
from repro.distributed.runner import run_distributed_algorithm1
from repro.experiments.scheduler import SweepPlan
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import check_positive_int

#: algorithms runnable by the harness
ALGORITHMS = ("greedy", "amp", "distributed", "distributed_amp", "twostage")

#: algorithms with a required-number-of-queries form (Figures 2-5);
#: the single source of the harness's and the CLI's ``--algorithm``
#: choice lists for required-m sweeps. ``twostage`` runs the
#: prefix-replay exact-decode scan (see
#: :func:`repro.experiments.parallel._required_queries_scan_chunk`).
REQUIRED_QUERIES_ALGORITHMS = ("greedy", "amp", "twostage")

def _batch_mode(algorithm: str, algorithm_kwargs: dict) -> Optional[str]:
    """Which stacked fixed-``m`` path covers this dispatch, if any.

    Returns ``"greedy"`` / ``"amp"`` when a seed-identical stacked
    implementation covers the request, else ``None`` (the per-trial
    loop). See the module docstring's support matrix for the covered
    ``algorithm_kwargs``; an AMP keyword other than ``denoiser`` or
    ``config`` raises.
    """
    if (
        algorithm == "greedy"
        and set(algorithm_kwargs) <= {"centering"}
        # the batch runner supports only these centerings; anything else
        # (e.g. "none") falls back to the seed-compatible per-trial loop
        and algorithm_kwargs.get("centering", "half_k") in ("half_k", "oracle")
    ):
        return "greedy"
    if algorithm == "amp":
        unknown = sorted(set(algorithm_kwargs) - {"denoiser", "config"})
        if unknown:
            raise TypeError(
                f"unknown AMP algorithm_kwargs {unknown}; "
                "valid: ['config', 'denoiser']"
            )
        return "amp"
    return None


def _run_algorithm(
    algorithm: str, measurements, **kwargs
) -> ReconstructionResult:
    if algorithm == "greedy":
        return greedy_reconstruct(measurements, **kwargs)
    if algorithm == "amp":
        # Sweeps keep only the decode outcome per trial; don't build
        # O(iterations) history dicts in every result's meta (direct
        # run_amp calls keep the track_history=True default).
        kwargs.setdefault("config", AMPConfig(track_history=False))
        return run_amp(measurements, **kwargs)
    if algorithm == "distributed":
        return run_distributed_algorithm1(measurements, **kwargs).result
    if algorithm == "distributed_amp":
        from repro.amp.distributed_amp import run_distributed_amp

        return run_distributed_amp(measurements, **kwargs).result
    if algorithm == "twostage":
        from repro.core.twostage import two_stage_reconstruct

        return two_stage_reconstruct(measurements, **kwargs)
    raise ValueError(f"unknown algorithm {algorithm!r}; valid: {ALGORITHMS}")


@dataclass(frozen=True)
class RequiredQueriesSample:
    """Required-m trial outcomes for one configuration.

    ``algorithm`` names the stopping rule the values came from
    (``"greedy"`` — the paper's incremental separation rule — or
    ``"amp"`` — smallest checked m whose prefix decodes exactly), so
    stored sweep artifacts stay distinguishable; artifacts written
    before the field existed load as ``"greedy"`` (see
    :func:`repro.experiments.storage.load_required_queries_sample`).
    """

    n: int
    k: int
    channel: str
    values: List[int]
    failures: int
    algorithm: str = "greedy"

    @property
    def trials(self) -> int:
        return len(self.values) + self.failures

    @property
    def median(self) -> float:
        return float(np.median(self.values)) if self.values else float("nan")

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")


def required_queries_trials(
    n: int,
    k: int,
    channel: Channel,
    *,
    trials: int = 10,
    seed: RngLike = 0,
    max_m: Optional[int] = None,
    check_every: int = 1,
    gamma: Optional[int] = None,
    centering: str = "half_k",
    algorithm: str = "greedy",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    corruption=None,
) -> RequiredQueriesSample:
    """Run the required-m procedure ``trials`` times, collect required m.

    ``algorithm="greedy"`` (default) applies the paper's incremental
    separation stopping rule through the chunked vectorized simulator,
    with the exact query-by-query semantics. ``algorithm="amp"``
    reports the smallest checked m whose prefix-measured query stream
    decodes exactly under AMP, through one ascending scan with stacked
    probe rounds (:func:`repro.amp.batch_amp.required_queries_amp`),
    which returns the m a brute-force ascending scan returns. The
    greedy-only ``centering`` knob is ignored for AMP.

    The call is a thin one-cell :class:`~repro.experiments.scheduler.
    SweepPlan`: ``workers > 1`` (or an explicit ``backend``) shards the
    trials through the sweep engine with bit-identical output for any
    backend and worker count (see the module docstring and
    :mod:`repro.experiments.scheduler`). Multi-cell sweeps should
    build one plan directly so cells share the global work queue.

    ``algorithm="twostage"`` — and any algorithm under a
    ``corruption`` model (:class:`~repro.core.corruption.
    CorruptionModel`) — reports the smallest checked m whose
    (corrupted) prefix decodes exactly, via the prefix-replay scan;
    each trial's corruption realization is a pure function of
    its child seed, so faulty sweeps keep the bit-identity contract.
    """
    plan = SweepPlan()
    plan.add_required_queries(
        n,
        k,
        channel,
        trials=trials,
        seed=seed,
        max_m=max_m,
        check_every=check_every,
        gamma=gamma,
        centering=centering,
        algorithm=algorithm,
        corruption=corruption,
    )
    return plan.run(backend=backend, workers=workers)[0]


def fold_required_queries(
    spec: Dict[str, object], outcomes
) -> RequiredQueriesSample:
    """Fold per-trial ``(succeeded, required_m)`` outcomes into a sample.

    The accumulation half of the engine's ordered merge — shared by
    every backend so the folded artifact can never depend on where the
    chunks ran.
    """
    values: List[int] = []
    failures = 0
    for succeeded, required_m in outcomes:
        if succeeded:
            values.append(int(required_m))
        else:
            failures += 1
    return RequiredQueriesSample(
        n=spec["n"],
        k=spec["k"],
        channel=spec["channel"].describe(),
        values=values,
        failures=failures,
        algorithm=spec["algorithm"],
    )


@dataclass(frozen=True)
class SuccessCurve:
    """Success-rate / overlap curve over an m-grid for one algorithm."""

    algorithm: str
    n: int
    k: int
    channel: str
    m_values: List[int]
    success_rates: List[float]
    overlaps: List[float]
    trials: int
    meta: Dict[str, object] = field(default_factory=dict)

    def crossing(self, level: float = 0.5) -> Optional[int]:
        """Smallest m on the grid whose success rate reaches ``level``."""
        for m, rate in zip(self.m_values, self.success_rates):
            if rate >= level:
                return m
        return None


def success_rate_curve(
    n: int,
    k: int,
    channel: Channel,
    m_values: Sequence[int],
    *,
    algorithm: str = "greedy",
    trials: int = 100,
    seed: RngLike = 0,
    gamma: Optional[int] = None,
    algorithm_kwargs: Optional[dict] = None,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    design: str = "replacement",
    corruption=None,
    fault=None,
) -> SuccessCurve:
    """Estimate success rate and overlap per query count ``m``.

    For every ``m`` in the grid, ``trials`` independent instances are
    drawn (fresh truth, graph and noise each time, matching the paper's
    "100 independent simulation runs" per data point).

    Greedy and AMP trials run on one block-diagonal instance stack per
    chunk (:func:`repro.experiments.parallel._fixed_m_group`: stacked
    greedy scores decoded by top-k, AMP through
    :func:`repro.amp.batch_amp.run_amp_prepared`) — both seed-identical
    to the per-trial loop. Algorithms without a stacked implementation
    (distributed, two-stage) use the per-trial loop; see the module
    docstring's support matrix. ``design`` selects the pooling design
    (:data:`repro.experiments.scheduler.DESIGNS`; the non-default
    designs run the per-trial loop).

    The call is a thin one-cell :class:`~repro.experiments.scheduler.
    SweepPlan`: ``workers > 1`` (or an explicit ``backend``) shards
    every grid point's trials through the sweep engine's global queue;
    the per-trial outcomes are merged in trial order and folded with
    the same accumulation as the serial loop, so the reported curves
    are bit-identical for every backend and worker count (see
    :mod:`repro.experiments.scheduler`).

    ``corruption`` (a :class:`~repro.core.corruption.CorruptionModel`)
    corrupts every trial's measurements post-channel — any algorithm;
    runs the per-trial loop. ``fault`` (a
    :class:`~repro.core.corruption.FaultSpec`) injects message
    drop/delay into the distributed protocol
    (``algorithm="distributed"`` only); per-trial
    :class:`~repro.distributed.network.NetworkMetrics` means land in
    ``SuccessCurve.meta["metrics"]``. Both draw every fault
    realization from dedicated streams of the trial's child seed, so
    results stay bit-identical on every backend / worker count / chunk
    layout.
    """
    plan = SweepPlan()
    plan.add_success_curve(
        n,
        k,
        channel,
        m_values,
        algorithm=algorithm,
        trials=trials,
        seed=seed,
        gamma=gamma,
        algorithm_kwargs=algorithm_kwargs,
        design=design,
        corruption=corruption,
        fault=fault,
    )
    return plan.run(backend=backend, workers=workers)[0]


def fold_success_curve(
    spec: Dict[str, object],
    m_values: Sequence[int],
    per_m_outcomes,
    trials: int,
) -> SuccessCurve:
    """Fold per-m ``(exact, overlap)`` outcome lists into a curve.

    The accumulation half of the engine's ordered merge for fixed-m
    cells — identical to the serial loop's folding, shared by every
    backend. Distributed cells emit ``(exact, overlap, metrics)``
    triples; the per-m metric means (rounds, messages, bits, dropped,
    delayed) are folded into ``SuccessCurve.meta["metrics"]``, and an
    active corruption/fault spec is recorded as its ``describe()``
    label — curves without either keep an empty ``meta``, so stored
    artifacts and golden reprs from earlier sweeps are unchanged.
    """
    success_rates: List[float] = []
    overlaps: List[float] = []
    metric_means: List[Dict[str, float]] = []
    has_metrics = False
    for outcomes in per_m_outcomes:
        successes = 0
        overlap_sum = 0.0
        metric_sums: Dict[str, float] = {}
        for outcome in outcomes:
            successes += outcome[0]
            overlap_sum += outcome[1]
            if len(outcome) > 2 and outcome[2]:
                has_metrics = True
                for key, value in outcome[2].items():
                    metric_sums[key] = metric_sums.get(key, 0.0) + value
        success_rates.append(successes / trials)
        overlaps.append(overlap_sum / trials)
        metric_means.append(
            {key: value / trials for key, value in metric_sums.items()}
        )
    meta: Dict[str, object] = {}
    if has_metrics:
        meta["metrics"] = metric_means
    corruption = spec.get("corruption")
    if corruption is not None and not corruption.is_null:
        meta["corruption"] = corruption.describe()
    fault = spec.get("fault")
    if fault is not None and not fault.is_null:
        meta["fault"] = fault.describe()
    return SuccessCurve(
        algorithm=spec["algorithm"],
        n=spec["n"],
        k=spec["k"],
        channel=spec["channel"].describe(),
        m_values=[int(m) for m in m_values],
        success_rates=success_rates,
        overlaps=overlaps,
        trials=trials,
        meta=meta,
    )


def run_many(
    trial_fn: Callable[[np.random.Generator], object],
    *,
    trials: int,
    seed: RngLike = 0,
) -> List[object]:
    """Generic helper: run ``trial_fn`` on independent child generators."""
    check_positive_int(trials, "trials")
    return [trial_fn(gen) for gen in spawn_rngs(seed, trials)]


__all__ = [
    "ALGORITHMS",
    "REQUIRED_QUERIES_ALGORITHMS",
    "RequiredQueriesSample",
    "required_queries_trials",
    "fold_required_queries",
    "SuccessCurve",
    "success_rate_curve",
    "fold_success_curve",
    "run_many",
]
