"""Checkpoint/resume for sweep plans: crash-safe, bit-identical.

A sweep's unit of durable progress is the **chunk** — a contiguous
slice of one cell's pre-spawned trial seeds, a pure function of
``(spec, kind, m, seeds)``. As chunks finish, the executor persists
each outcome list here (atomic write-then-rename through
:func:`repro.experiments.storage.save_json_atomic`); when a cell's
last chunk lands, the cell's merged raw outcomes are persisted as one
record and the chunk files are dropped. A driver that is killed
mid-sweep and re-run with the **same plan** therefore skips completed
cells entirely and resumes half-finished ones from their surviving
chunks — and the resumed result is bit-identical to an uninterrupted
run *by construction*, because the plan re-spawns the same child seeds
and the restored outcomes are the very values the chunks returned
(JSON round-trips bools, ints and ``repr``-exact floats losslessly).

Layout
------
The user-facing checkpoint path is a **root directory**; each plan
stores under a subdirectory keyed by its content fingerprint::

    <root>/plan-<hash16>/manifest.json      # fingerprint + cell shapes
    <root>/plan-<hash16>/cell_0003.json     # a completed cell's outcomes
    <root>/plan-<hash16>/chunk_c3_m2_0_8.json  # a finished chunk

so one checkpoint root (e.g. ``REPRO_CHECKPOINT=ckpt/``) serves every
plan a figure pipeline runs, without cross-plan collisions. Pointing
the path **directly at a plan directory** (one that already contains a
``manifest.json``) is also supported; then the manifest's recorded
fingerprint must match the live plan — a mismatch (the plan's specs,
seeds or shape changed since the checkpoint was written) raises
:class:`CheckpointMismatch` instead of silently resuming foreign
outcomes.

The fingerprint hashes every cell's kind, spec (including the channel
object), trial count, m-grid, and the entropy/spawn-key of every
pre-spawned child seed — the complete input closure of the sweep. It
is stable across processes and runs for the same plan, but **not**
guaranteed stable across library versions (it hashes pickled specs,
the same same-version assumption the wire protocol makes); a version
bump simply recomputes.

Chunk records are keyed by ``(cell, m-index, trial-range)`` rather
than queue position, so a resume with a different worker count or
backend (hence a different chunk layout) still reuses every record
whose trial range matches — and recomputes the rest, which is always
correct because chunks are pure.

Records are input read from disk, so opening a checkpoint checks every
one before anything resumes: a record that does not parse, names no
cell of the plan, or holds a different number of outcomes than its
cell (trials, per grid point) or chunk key (``hi - lo``) implies raises
:class:`CheckpointError` naming the file. It is never dropped and
recomputed in silence: the writer is atomic, so such a record means
outside damage, which the user should see; deleting the file makes
the next run recompute it.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.storage import load_json, save_json_atomic

#: manifest schema version (bump on layout changes)
CHECKPOINT_VERSION = 1

#: environment variable supplying a default checkpoint root for every
#: executor run (the CLI's ``--checkpoint`` exports it, which is how
#: the figure pipelines — which build several plans internally — get
#: checkpointing without per-figure plumbing)
CHECKPOINT_ENV = "REPRO_CHECKPOINT"


class CheckpointError(RuntimeError):
    """A checkpoint cannot be resumed as it stands on disk."""


class CheckpointMismatch(CheckpointError):
    """A manifest's plan fingerprint disagrees with the live plan."""


#: record file stems: ``cell_<index>`` and ``chunk_c<cell>_m<part>_<lo>_<hi>``
_CELL_STEM = re.compile(r"cell_(\d+)")
_CHUNK_STEM = re.compile(r"chunk_(c\d+_m(?:r|\d+)_(\d+)_(\d+))")


def _read_outcomes(path: Path) -> list:
    """A record's outcome list; :class:`CheckpointError` if unreadable."""
    try:
        return load_json(path)["outcomes"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint record {path}: {exc!r}"
        ) from exc


def _expect_outcomes(path: Path, outcomes, count: int) -> None:
    """:class:`CheckpointError` unless ``outcomes`` is a list of ``count``."""
    if not isinstance(outcomes, list) or len(outcomes) != count:
        held = (
            f"{len(outcomes)} outcomes"
            if isinstance(outcomes, list)
            else f"a {type(outcomes).__name__}"
        )
        raise CheckpointError(
            f"checkpoint record {path} holds {held} where its key implies "
            f"{count} outcomes; delete it to recompute"
        )


def _seed_fingerprint(seed) -> tuple:
    """A ``SeedSequence``'s identity: entropy + spawn key."""
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = tuple(int(e) for e in entropy)
    return (entropy, tuple(seed.spawn_key))


def plan_fingerprint(plan) -> str:
    """Content hash (sha256 hex) of a plan's specs + pre-spawned seeds.

    Two plans fingerprint equal iff every cell has the same kind,
    spec, trial count, m-grid and child-seed identities — exactly the
    closure that determines every chunk's output. Channel objects are
    hashed via their pickle, deterministic within a library version.
    """
    cells = []
    for cell in plan._cells:
        seeds = None
        if cell.seeds is not None:
            seeds = [_seed_fingerprint(s) for s in cell.seeds]
        per_m = None
        if cell.per_m_seeds is not None:
            per_m = [
                [_seed_fingerprint(s) for s in m_seeds]
                for m_seeds in cell.per_m_seeds
            ]
        cells.append(
            (cell.kind, cell.spec, cell.trials, cell.m_values, seeds, per_m)
        )
    blob = pickle.dumps(cells, pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def chunk_key(cell: int, m_index: Optional[int], lo: int, hi: int) -> str:
    """Stable identity of one chunk record (layout-independent)."""
    m_part = "r" if m_index is None else str(m_index)
    return f"c{cell}_m{m_part}_{lo}_{hi}"


class SweepCheckpoint:
    """One plan's durable progress under a checkpoint directory.

    Construct via :meth:`open`, which resolves the plan subdirectory,
    verifies (or writes) the manifest, and loads every surviving cell
    and chunk record into memory — the executor then consults
    :meth:`cell_outcomes` / :meth:`chunk_outcomes` before queueing
    work and calls :meth:`record_chunk` / :meth:`record_cell` as new
    results land. ``cells_reused`` / ``chunks_reused`` count what the
    resume actually skipped (asserted in tests, printed by the chaos
    smoke).
    """

    def __init__(self, directory: Path, fingerprint: str, cells: int) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.n_cells = cells
        self._cells: Dict[int, list] = {}
        self._chunks: Dict[str, list] = {}
        self.cells_reused = 0
        self.chunks_reused = 0

    # ---- construction ----

    @classmethod
    def open(cls, path, plan) -> "SweepCheckpoint":
        """Open (or initialize) the checkpoint for ``plan`` under ``path``.

        ``path`` is normally a checkpoint *root* (the plan subdirectory
        is derived from the fingerprint); a path that itself contains
        ``manifest.json`` is treated as a plan directory and must
        fingerprint-match, else :class:`CheckpointMismatch`.
        """
        root = Path(path)
        fingerprint = plan_fingerprint(plan)
        if (root / "manifest.json").exists():
            directory = root
        else:
            directory = root / f"plan-{fingerprint[:16]}"
        manifest_path = directory / "manifest.json"
        if manifest_path.exists():
            manifest = load_json(manifest_path)
            if manifest.get("version") != CHECKPOINT_VERSION:
                raise CheckpointMismatch(
                    f"checkpoint {directory} has manifest version "
                    f"{manifest.get('version')!r}; this library writes "
                    f"version {CHECKPOINT_VERSION}"
                )
            if manifest.get("plan_hash") != fingerprint:
                raise CheckpointMismatch(
                    f"stale checkpoint {directory}: its manifest was "
                    f"written for plan {manifest.get('plan_hash')!r} but "
                    f"the live plan hashes to {fingerprint!r} — the specs, "
                    "seeds or cell layout changed; delete the directory "
                    "or point --checkpoint elsewhere to recompute"
                )
            if manifest.get("cells") != len(plan._cells):
                raise CheckpointMismatch(
                    f"stale checkpoint {directory}: manifest records "
                    f"{manifest.get('cells')} cells, plan has "
                    f"{len(plan._cells)}"
                )
        else:
            save_json_atomic(
                manifest_path,
                {
                    "version": CHECKPOINT_VERSION,
                    "plan_hash": fingerprint,
                    "cells": len(plan._cells),
                    "cell_kinds": [c.kind for c in plan._cells],
                },
            )
        ckpt = cls(directory, fingerprint, len(plan._cells))
        ckpt._load_records(plan._cells)
        return ckpt

    def _load_records(self, cells) -> None:
        """Read and check every surviving cell/chunk record once.

        Each record's outcome count must match the plan: a cell holds
        one outcome per trial (per grid point for a success curve), a
        chunk ``hi - lo``. Anything else raises :class:`CheckpointError`
        naming the file (see the module docstring).
        """
        for path in sorted(self.directory.glob("cell_*.json")):
            match = _CELL_STEM.fullmatch(path.stem)
            if match is None or int(match.group(1)) >= len(cells):
                raise CheckpointError(
                    f"checkpoint record {path} names no cell of this plan"
                )
            index = int(match.group(1))
            cell = cells[index]
            outcomes = _read_outcomes(path)
            if cell.m_values is None:
                _expect_outcomes(path, outcomes, cell.trials)
            else:
                _expect_outcomes(path, outcomes, len(cell.m_values))
                for per_m in outcomes:
                    _expect_outcomes(path, per_m, cell.trials)
            self._cells[index] = outcomes
        for path in sorted(self.directory.glob("chunk_*.json")):
            match = _CHUNK_STEM.fullmatch(path.stem)
            if match is None:
                raise CheckpointError(
                    f"checkpoint record {path} has no chunk key"
                )
            lo, hi = int(match.group(2)), int(match.group(3))
            outcomes = _read_outcomes(path)
            _expect_outcomes(path, outcomes, hi - lo)
            self._chunks[match.group(1)] = outcomes

    # ---- resume side ----

    def cell_outcomes(self, cell: int) -> Optional[list]:
        """The completed cell's raw outcomes, or ``None``."""
        outcomes = self._cells.get(cell)
        if outcomes is not None:
            self.cells_reused += 1
        return outcomes

    def chunk_outcomes(self, key: str) -> Optional[list]:
        """A finished chunk's outcome list, or ``None``."""
        outcomes = self._chunks.get(key)
        if outcomes is not None:
            self.chunks_reused += 1
        return outcomes

    # ---- record side ----

    def record_chunk(self, key: str, outcomes: list) -> None:
        """Persist one finished chunk (atomic write-then-rename)."""
        save_json_atomic(
            self.directory / f"chunk_{key}.json", {"outcomes": outcomes}
        )
        self._chunks[key] = outcomes

    def record_cell(self, cell: int, outcomes: list) -> None:
        """Persist a completed cell and drop its now-redundant chunks."""
        save_json_atomic(
            self.directory / f"cell_{cell:04d}.json", {"outcomes": outcomes}
        )
        self._cells[cell] = outcomes
        prefix = f"c{cell}_"
        stale = [k for k in self._chunks if k.startswith(prefix)]
        for key in stale:
            del self._chunks[key]
            try:
                (self.directory / f"chunk_{key}.json").unlink()
            except OSError:
                pass  # a lost cleanup only costs disk, never correctness


__all__ = [
    "CHECKPOINT_ENV",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointMismatch",
    "SweepCheckpoint",
    "chunk_key",
    "plan_fingerprint",
]
