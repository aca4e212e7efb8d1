"""CI smoke: the distributed Algorithm 1 at the paper's sizes.

Runs the message-passing protocol (Batcher's network, m = 0.4 n,
Z-channel p = 0.1, k = n^0.25) at n = 2048 and 4096 and asserts its
two exact claims: the run takes ``depth + 3`` rounds, and its estimate
equals the vectorized greedy decoder's. Every node reads the one
participation table of the shared comparator schedule, which is what
keeps these sizes within a few hundred MB.

Run: ``PYTHONPATH=src python benchmarks/smoke_distributed_scale.py``
"""

import sys
import time

import numpy as np

import repro
from repro.distributed import run_distributed_algorithm1

SIZES = (2048, 4096)


def check(n: int) -> list:
    gen = np.random.default_rng(n)
    truth = repro.sample_ground_truth(n, repro.sublinear_k(n, 0.25), gen)
    graph = repro.sample_pooling_graph(n, int(0.4 * n), rng=gen)
    meas = repro.measure(graph, truth, repro.ZChannel(0.1), gen)
    started = time.perf_counter()
    run = run_distributed_algorithm1(meas)
    elapsed = time.perf_counter() - started
    rounds = run.metrics.rounds
    print(
        f"n={n}: depth {run.sort_depth}, rounds {rounds}, "
        f"messages {run.metrics.messages}, {elapsed:.1f} s"
    )
    errors = []
    if rounds != run.sort_depth + 3:
        errors.append(f"n={n}: {rounds} rounds, expected depth + 3")
    greedy = repro.greedy_reconstruct(meas)
    if not np.array_equal(run.result.estimate, greedy.estimate):
        errors.append(f"n={n}: estimate differs from greedy_reconstruct's")
    return errors


def main() -> int:
    errors = [e for n in SIZES for e in check(n)]
    for error in errors:
        print("FAIL:", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
