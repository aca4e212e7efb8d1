"""CI smoke: a sweep survives a SIGKILL and resumes bit-identical.

A child process runs a two-cell plan with ``--checkpoint`` semantics
(``SweepPlan.run(checkpoint=...)``) on the ``serial`` backend and is
SIGKILLed as soon as its first cell record lands on disk, before the
second cell completes. The parent then re-runs the plan against the
same checkpoint on the ``process`` backend with two workers: it must
restore the first cell from its record, compute the second, and agree
bit-for-bit with an uninterrupted serial run, so a resume is smoked
across backends and chunk layouts (a cell record is layout-free). The
child stays serial because its slow-chunk patch only reaches chunks
run in-process.

Must live in a real file (not a stdin heredoc): the child is launched
as ``python <this file> --child``, and the process backend's workers
re-import the parent's main module, which they cannot do for
``<stdin>``: ``spawn`` workers start a new interpreter, and workers
forked from the ``forkserver`` (Linux) run the same preparation step.

Run: ``PYTHONPATH=src python benchmarks/smoke_checkpoint_resume.py``
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.experiments.parallel import shutdown_pool
from repro.experiments.scheduler import SweepPlan


def resume_plan() -> SweepPlan:
    plan = SweepPlan()
    plan.add_required_queries(
        150, 4, repro.ZChannel(0.1), trials=8, seed=11, check_every=4
    )
    plan.add_success_curve(
        120, 3, repro.NoiselessChannel(), [40, 80], trials=4, seed=7
    )
    return plan


def checkpoint_resume(reference: str) -> None:
    with tempfile.TemporaryDirectory(prefix="resume-ckpt-") as tmp:
        ckpt = Path(tmp)
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", str(ckpt)],
            env=os.environ.copy(),
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if list(ckpt.glob("plan-*/cell_*.json")):
                    break
                if child.poll() is not None:
                    raise AssertionError(
                        "child sweep finished before it could be killed; "
                        "slow it down or shrink the poll interval"
                    )
                time.sleep(0.02)
            else:
                raise AssertionError("no cell record appeared within 120s")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
        assert child.returncode != 0, "SIGKILLed child exited 0?"
        cells = sorted(path.name for path in ckpt.glob("plan-*/cell_*.json"))
        assert cells == ["cell_0000.json"], f"unexpected records {cells}"

        try:
            got = resume_plan().run(
                backend="process", workers=2, checkpoint=ckpt
            )
        finally:
            shutdown_pool()
        assert repr(got) == reference, "resumed sweep diverged from serial"
        print(
            "checkpoint resume ok: serial sweep killed once, process "
            "resume bit-identical"
        )


def child_main(ckpt: str) -> int:
    """Run the plan slowly enough that the parent can SIGKILL us after
    the first durable chunk but before the sweep completes."""
    import repro.experiments.scheduler as sched

    real = sched._run_chunk

    def slow_chunk(spec, kind, m, seeds):
        out = real(spec, kind, m, seeds)
        time.sleep(0.3)
        return out

    sched._run_chunk = slow_chunk
    resume_plan().run(backend="serial", checkpoint=ckpt)
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        return child_main(sys.argv[2])
    reference = repr(resume_plan().run(backend="serial"))
    checkpoint_resume(reference)
    print("checkpoint smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
