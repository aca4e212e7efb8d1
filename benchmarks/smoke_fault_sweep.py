"""CI smoke: fault-scenario sweep cells, bit-identical across backends.

Runs a four-cell :class:`~repro.experiments.scheduler.SweepPlan`
exercising every PR 8 fault axis — a corrupted success curve (mirror
flips), a message-drop ``distributed`` cell, a corrupted required-m
scan (erasures), and a ``twostage`` required-m cell — on the
``serial`` and ``process`` (workers=2) backends and asserts the
results are repr-identical: every fault realization is drawn from a
dedicated stream of the trial's child seed, so the backend, worker
count, and chunk layout cannot change a faulty run.

A second plan checks the monotone-degradation sanity: raising the
corruption rate at fixed m must not improve the greedy decoder's
overlap (beyond a small sampling tolerance).

Must live in a real file (not a stdin heredoc): the worker processes
re-import the driver's main module, which they cannot do for
``<stdin>`` — under ``spawn`` and under the ``forkserver`` (Linux)
alike, whose forked workers run the same preparation step.

Run: ``PYTHONPATH=src python benchmarks/smoke_fault_sweep.py``
"""

import repro
from repro.core.corruption import CorruptionModel, FaultSpec
from repro.experiments import shutdown_pool
from repro.experiments.scheduler import SweepPlan


def build_plan() -> SweepPlan:
    plan = SweepPlan()
    plan.add_success_curve(
        50, 3, repro.ZChannel(0.1), [30, 60], trials=6, seed=123,
        corruption=CorruptionModel(flip_rate=0.1),
    )
    plan.add_success_curve(
        40, 3, repro.ZChannel(0.1), [30], algorithm="distributed",
        trials=4, seed=124, fault=FaultSpec(drop=0.2, delay=0.1, max_delay=2),
    )
    plan.add_required_queries(
        60, 3, repro.ZChannel(0.1), trials=4, seed=125, check_every=10,
        corruption=CorruptionModel(erasure_rate=0.1),
    )
    plan.add_required_queries(
        60, 3, repro.ZChannel(0.1), trials=3, seed=126, check_every=10,
        algorithm="twostage",
    )
    return plan


def build_degradation_plan() -> SweepPlan:
    plan = SweepPlan()
    for rate in (0.0, 0.4, 0.8):
        plan.add_success_curve(
            100, 3, repro.ZChannel(0.1), [80], trials=8, seed=42,
            corruption=CorruptionModel(erasure_rate=rate),
        )
    return plan


def main() -> int:
    try:
        serial = build_plan().run(backend="serial")
        process = build_plan().run(backend="process", workers=2)
        assert repr(serial) == repr(process), (
            "faulty sweep diverged between serial and process backends"
        )
        curves = build_degradation_plan().run(backend="process", workers=2)
        overlaps = [curve.overlaps[0] for curve in curves]
        assert all(
            b <= a + 0.05 for a, b in zip(overlaps, overlaps[1:])
        ), f"overlap not (weakly) monotone in the corruption rate: {overlaps}"
        print(
            "fault smoke ok:",
            serial[0].success_rates,
            serial[1].success_rates,
            serial[2].values,
            serial[3].values,
            overlaps,
        )
    finally:
        shutdown_pool()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
