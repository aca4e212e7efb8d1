"""JSON persistence primitives (stdlib plus NumPy).

Dataclass- and NumPy-aware JSON writing, plus the crash-safe atomic
write the sweep checkpoint layer and the decode service's session
store both rely on. The module imports nothing else from the package,
so a caller pulls in only what it uses.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Union

PathLike = Union[str, Path]


def _to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy scalars to JSON types."""
    import numpy as np

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def save_json(path: PathLike, obj: Any) -> Path:
    """Serialize ``obj`` (dataclass-aware) to pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(_to_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_json(path: PathLike) -> Any:
    """Load JSON written by :func:`save_json`."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def save_json_atomic(path: PathLike, obj: Any) -> Path:
    """Crash-safe :func:`save_json`: write to a sibling temp file, then
    ``os.replace`` into place.

    A reader (or a resumed driver) therefore sees either the previous
    complete file or the new complete file, never a torn write — the
    durability primitive of the sweep checkpoint layer. The temp file
    lives in the same directory so the rename stays within one
    filesystem (atomic on POSIX and Windows).
    """
    import os
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(_to_jsonable(obj), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


__all__ = ["save_json", "load_json", "save_json_atomic"]
