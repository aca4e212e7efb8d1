"""Persistence of experiment results (JSON + CSV, stdlib only).

Figure entry points return plain dataclasses; this module serializes
them so that benchmark runs can leave their data behind for
EXPERIMENTS.md and for external plotting. The JSON primitives live in
:mod:`repro.utils.jsonio` and are re-exported here.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.utils.jsonio import (
    PathLike,
    _to_jsonable,
    load_json,
    save_json,
    save_json_atomic,
)


def save_csv(
    path: PathLike, rows: Sequence[Dict[str, Any]], *, fieldnames: List[str] = None
) -> Path:
    """Write a list of dict rows as CSV (fields inferred if omitted)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(rows)
    if not rows:
        raise ValueError("cannot write an empty CSV")
    if fieldnames is None:
        fieldnames = list(rows[0].keys())
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _to_jsonable(v) for k, v in row.items()})
    return path


def load_csv(path: PathLike) -> List[Dict[str, str]]:
    """Read a CSV written by :func:`save_csv` (values come back as str)."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def load_required_queries_sample(source):
    """Rehydrate a stored required-m sweep sample (JSON path or dict).

    Inverse of :func:`save_json` on a
    :class:`~repro.experiments.runner.RequiredQueriesSample`. Samples
    written before the ``algorithm`` field existed (greedy-only
    pipeline) load as ``algorithm="greedy"``, so old sweep artifacts
    stay distinguishable from AMP required-m samples without a schema
    migration.
    """
    from repro.experiments.runner import RequiredQueriesSample

    data = source if isinstance(source, dict) else load_json(source)
    return RequiredQueriesSample(
        n=int(data["n"]),
        k=int(data["k"]),
        channel=data["channel"],
        values=[int(v) for v in data["values"]],
        failures=int(data["failures"]),
        algorithm=str(data.get("algorithm", "greedy")),
    )


__all__ = [
    "save_json",
    "load_json",
    "save_json_atomic",
    "save_csv",
    "load_csv",
    "load_required_queries_sample",
]
