"""Content-addressed cache for pipeline reports.

Keys hash the full input description (dimensions, geometry, weights, the
SHA-256 digest of the tower's canonical relation text, and the engine
version), so any change to the reduction algebra or to the engine invalidates
stale entries.  The digest comes with the tower from ``tower.pipeline_tower``,
once per process, so forming a key hashes only this short description.
Writes go through a temporary file and an atomic rename; two processes
writing the same key at once are harmless because they write identical
content.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Optional, Sequence

ENGINE_VERSION = "0.1.0"

DEFAULT_CACHE_DIR = ".jetbound-cache"
CACHE_ENV_VAR = "JETBOUND_CACHE"


def resolve_cache_dir(explicit: Optional[str] = None) -> str:
    """Explicit flag beats the JETBOUND_CACHE variable beats the default."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR


def cache_key(
    n: int,
    r: int,
    k: int,
    geometry: str,
    weights: Sequence[int],
    relations_digest: str,
) -> str:
    """Hex digest identifying one pipeline configuration; ``relations_digest`` is ``pipeline_tower``'s."""
    blob = "\n".join(
        [
            f"engine={ENGINE_VERSION}",
            f"n={n}",
            f"r={r}",
            f"k={k}",
            f"geometry={geometry}",
            "weights=" + ",".join(str(w) for w in weights),
            "relations=" + relations_digest,
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def fetch(cache_dir: str, key: str) -> Optional[bytes]:
    try:
        with open(_path(cache_dir, key), "rb") as fh:
            return fh.read()
    except OSError:
        return None


def store(cache_dir: str, key: str, payload: bytes) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, _path(cache_dir, key))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
