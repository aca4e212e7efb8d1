"""The benchmark's own checks, at tiny scale (about a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

It checks that

* every metric a run prints matches BENCHMARK.json by name and unit,
  for every workload, traced and untraced;
* a traced run leaves no attribute of the package patched;
* every correctness gate fails when fed a perturbed output;
* outside a checkout the benchmark exits non-zero without a result;
* a run on the process backend leaves no process behind.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import service_load  # noqa: E402

ROOT = Path.cwd()
FAILURES = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def package_attributes():
    """Identity of every function and class member of the package.

    Plain data (such as the cached worker pool) may change during a
    run; a callable that changed identity was left patched.
    """
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value):
                snapshot[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    snapshot[(name, attr, cattr)] = id(cvalue)
    return snapshot


def check_metric_names():
    e2e, layers = declared("end_to_end"), declared("per_layer")
    check(run.END_TO_END_UNITS == e2e, "end-to-end names and units match")
    check(run.PER_LAYER_UNITS == layers, "per-layer names and units match")
    for workload in run.WORKLOADS:
        result, _ = run.run(workload, 3, 0.5, False, ROOT, tiny=True)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        check(printed == e2e and result["correct"],
              f"{workload}: untraced run prints the end-to-end metrics")
        before = package_attributes()
        result, _ = run.run(workload, 3, 0.5, True, ROOT, tiny=True)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        check(printed == layers and result["correct"],
              f"{workload}: traced run prints the per-layer metrics")
        after = package_attributes()
        changed = sorted(k for k in before if after.get(k) != before[k])
        check(not changed, f"{workload}: traced run left nothing patched {changed[:3]}")


def check_gates():
    run.hermetic_env(ROOT)
    run.import_program(ROOT)

    fig2 = run.Fig2ZChannel(tiny=True)
    rows = fig2.call(5)
    check(not fig2.shape_errors(rows), "fig2 shape holds on real output")
    bad = copy.deepcopy(rows)
    bad[0]["failures"] = 1
    check(bool(fig2.shape_errors(bad)), "fig2 gate catches a failed trial")
    bad = copy.deepcopy(rows)
    top = max(r["n"] for r in bad if r["series"] == "p=0.1")
    for r in bad:
        if r["n"] == top and r["series"] == "p=0.1":
            r["required_m_median"] = 10**9
    check(bool(fig2.shape_errors(bad)), "fig2 gate catches misordered medians")

    fig6 = run.Fig6GreedyVsAmp(tiny=True)
    rows = fig6.call(5, backend="serial")
    check(not fig6.shape_errors(rows), "fig6 shape holds on real output")
    bad = copy.deepcopy(rows)
    for r in bad:
        if r["series"] == "amp p=0.1":
            r["success_rate"] = 0.0
    check(bool(fig6.shape_errors(bad)), "fig6 gate catches a late AMP crossing")

    for workload in run.WORKLOADS:
        recorded = run.recorded_digest(workload)
        check(not run.check_digest(workload, run.DEFAULT_SEED, recorded, False),
              f"{workload}: recorded digest passes")
        check(bool(run.check_digest(workload, run.DEFAULT_SEED, "0" * 16, False)),
              f"{workload}: digest gate catches other outputs")
    bad = copy.deepcopy(rows)
    bad[0]["success_rate"] += 1e-12
    check(run.digest_rows(bad) != run.digest_rows(rows),
          "row digest changes with any output")

    records = [{"kind": "decode", "session": 0, "error": None,
                "response": {"m": 25 * (i + 1), "exact": False}}
               for i in range(4)]
    perturbed = copy.deepcopy(records)
    perturbed[2]["response"]["exact"] = True
    scores = [[0.25, 0.5]]
    check(service_load.digest(records, scores)
          != service_load.digest(perturbed, scores),
          "service digest changes with any decode answer")
    check(service_load.digest(records, scores)
          != service_load.digest(records, [[0.25, 0.5 + 1e-12]]),
          "service digest changes with any probed score")

    import numpy as np

    class Ref:
        scores = np.arange(5.0)
        exact = True

    good = {"scores": list(np.arange(5.0)), "exact": True, "degraded": False}
    check(not service_load.compare_scores("s", good, Ref), "identical scores pass")
    for key, value in (("scores", list(np.arange(5.0) + 1e-12)),
                       ("exact", False), ("degraded", True)):
        bad = dict(good, **{key: value})
        check(bool(service_load.compare_scores("s", bad, Ref)),
              f"service bit-identity gate catches a perturbed {key}")


def check_outside_checkout():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2_zchannel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program the benchmark fails and prints no result")


def session_processes(sid):
    """Live processes of session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, NotADirectoryError):
            continue
        if entry.name.isdigit() and int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            found.append(int(entry.name))
    return found


def check_no_process_left():
    """The process backend's pool and resource tracker end with the run."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fig6_greedy_vs_amp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    left = session_processes(proc.pid)
    check(proc.returncode == 0 and '"correct": true' in out,
          "fig6_greedy_vs_amp command-line run succeeds")
    check(not left, f"the run leaves no process behind {left}")


def main():
    check_gates()
    check_metric_names()
    check_outside_checkout()
    check_no_process_left()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
