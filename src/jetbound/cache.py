"""Content-addressed cache for pipeline reports.

A key is the SHA-256 of a short description of one job: the engine
version, the base dimension n, the jet order k, the geometry token and the
weights, one ``name=value`` line each.  Those are everything a job reads
apart from the engine itself, so forming a key does no algebra.  The engine
is named by ``ENGINE_VERSION`` alone: any change to a field a report stores,
or to a value the engine computes for it, must bump ``ENGINE_VERSION``, which
retires every stored file at once.  Writes go through a temporary file and
an atomic rename; two processes writing the same key at once are harmless
because they write identical content.
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


def cache_key(n: int, k: int, geometry: str, weights: Sequence[int]) -> str:
    """The SHA-256, in hex, of one job's description: its (n, k) tower, geometry token and weights."""
    blob = "\n".join(
        [
            f"engine={ENGINE_VERSION}",
            f"n={n}",
            f"k={k}",
            f"geometry={geometry}",
            "weights=" + ",".join(str(w) for w in weights),
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
    """Write ``payload`` under ``key`` atomically; the caller creates ``cache_dir`` first."""
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
