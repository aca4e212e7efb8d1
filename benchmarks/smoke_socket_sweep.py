"""CI smoke: a three-cell sweep through the socket backend.

Spawns two localhost socket workers, runs a small three-cell
:class:`~repro.experiments.scheduler.SweepPlan` through the ``socket``
backend, and asserts the results are bit-identical to the ``serial``
backend on the same plan — the cross-host sharding path end to end.
The two success curves share a seed and an m-grid, so their chunks
cross the wire as fused draw-sharing items.

Must live in a real file (not a stdin heredoc): the worker processes
start under the ``spawn`` method, which re-imports the driver's main
module and cannot do so for ``<stdin>``.

Run: ``PYTHONPATH=src python benchmarks/smoke_socket_sweep.py``
"""

import repro
from repro.experiments.scheduler import SweepPlan
from repro.experiments.worker import start_local_workers


def main() -> int:
    hosts, shutdown = start_local_workers(2)
    try:
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
        socket_results = plan.run(backend="socket", hosts=hosts)
        serial_results = plan.run(backend="serial")
        assert socket_results[0].values == serial_results[0].values
        assert socket_results[0].failures == serial_results[0].failures
        for got, want in zip(socket_results[1:], serial_results[1:]):
            assert got.success_rates == want.success_rates
            assert got.overlaps == want.overlaps
        print(
            "socket smoke ok:",
            socket_results[0].values,
            socket_results[1].success_rates,
            socket_results[2].success_rates,
        )
    finally:
        shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
