"""CI smoke: a mixed sweep through the shared-memory dispatch arena.

Runs a four-cell :class:`~repro.experiments.scheduler.SweepPlan`
(greedy required-queries, a greedy success curve with an AMP sibling
on the same seed and m-grid — so their chunks travel as fused
draw-sharing items — and an AMP required-m cell) on the ``process``
backend with ``shm=True`` and asserts the results are bit-identical to
the ``serial`` backend on the same plan — the arena-dispatch path end
to end, including the worker-side attach with the resource tracker
disarmed. Afterwards the driver must hold no
live arena (the executor unlinks in its ``finally`` block).

Must live in a real file (not a stdin heredoc): the worker processes
start under the ``spawn`` method, which re-imports the driver's main
module and cannot do so for ``<stdin>``.

Run: ``PYTHONPATH=src python benchmarks/smoke_shm_sweep.py``
"""

import repro
from repro.experiments import shm as shm_module
from repro.experiments import shutdown_pool
from repro.experiments.scheduler import SweepPlan


def build_plan() -> SweepPlan:
    plan = SweepPlan()
    plan.add_required_queries(
        150, 4, repro.ZChannel(0.1), trials=4, seed=11
    )
    plan.add_success_curve(
        120, 3, repro.NoiselessChannel(), [40, 80], trials=4, seed=7
    )
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.2), [40, 80], trials=4, seed=7,
        algorithm="amp",
    )
    plan.add_required_queries(
        150, 3, repro.ZChannel(0.05), trials=4, seed=3, algorithm="amp",
        check_every=10, max_m=300,
    )
    return plan


def main() -> int:
    try:
        shm_results = build_plan().run(
            backend="process", workers=2, shm=True
        )
        serial_results = build_plan().run(backend="serial")
        assert repr(shm_results) == repr(serial_results)
        assert not shm_module._live_arenas, "leaked shared-memory arena"
        print(
            "shm smoke ok:",
            shm_results[0].values,
            shm_results[1].success_rates,
            shm_results[2].success_rates,
            shm_results[3].values,
        )
    finally:
        shutdown_pool()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
