"""Content-addressed stage cache over :mod:`repro.core.artifacts`.

Every cacheable stage execution is identified by the SHA-256 of its
*recipe*: stage kind + implementation name + resolved parameters + the cache
keys of its upstream stages.  Outputs are stored as ``pipeline_stage``
artifacts (manifest + sha256-checked ``arrays.npz``), staged and renamed
into place so an interrupted write never leaves a half-entry behind.

A corrupted entry (truncated payload, flipped bit, missing manifest) fails
the artifact integrity check on load; the cache deletes it and reports a
miss, so the stage is recomputed and the entry healed — never silently
served broken.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zipfile
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.artifacts import (
    ArtifactError,
    read_artifact_dir,
    write_artifact_dir,
)
from repro.pipeline.codec import CodecError, decode_value, encode_value

#: staging dirs older than this are orphans of killed runs (active writes
#: live for seconds); swept on cache construction
STALE_STAGING_SECONDS = 3600.0

#: artifact kind of cache entries
KIND_STAGE = "pipeline_stage"

#: bump when the codec/recipe format changes incompatibly
CACHE_FORMAT_VERSION = 1

_MISS = object()


def recipe_key(kind: str, impl: str, params: Mapping[str, Any],
               input_keys: Mapping[str, str]) -> str:
    """Stable content hash of one stage invocation.

    The package version is part of the recipe, so a release whose stage
    implementations changed semantics invalidates every old entry
    automatically.  Within one development version the key cannot see code
    edits — after changing what a stage *computes*, bump
    ``CACHE_FORMAT_VERSION`` (or clear the cache directory).
    """
    import repro

    recipe = {
        "cache_format": CACHE_FORMAT_VERSION,
        "repro_version": repro.__version__,
        "kind": kind,
        "impl": impl,
        "params": params,
        "inputs": dict(input_keys),
    }
    try:
        canonical = json.dumps(recipe, sort_keys=True,
                               separators=(",", ":"), allow_nan=True)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"stage {impl!r} has non-JSON-serialisable parameters: {exc}"
        ) from exc
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class StageCache:
    """Read/write stage outputs under ``<root>/<key[:2]>/<key>/``."""

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = os.path.expanduser(os.fspath(root))
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._sweep_stale_staging()

    def _sweep_stale_staging(self) -> None:
        """Remove staging dirs orphaned by killed runs (never active ones)."""
        cutoff = time.time() - STALE_STAGING_SECONDS
        try:
            prefixes = os.scandir(self.root)
        except OSError:
            return
        for prefix in prefixes:
            if not prefix.is_dir():
                continue
            try:
                entries = os.scandir(prefix.path)
            except OSError:
                continue
            for entry in entries:
                if entry.name.startswith(".staging-"):
                    try:
                        if entry.stat().st_mtime < cutoff:
                            shutil.rmtree(entry.path, ignore_errors=True)
                    except OSError:
                        pass

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key)

    def load(self, key: str) -> Any:
        """The cached output for ``key``, or the module-level ``MISS``.

        Any failure to read/verify/decode the entry evicts it and reports a
        miss — a corrupted artifact must never be served.
        """
        path = self.path_for(key)
        if not os.path.isdir(path):
            self.misses += 1
            return _MISS
        try:
            manifest, arrays = read_artifact_dir(path, kind=KIND_STAGE)
            output = decode_value(manifest["config"]["output"], arrays)
        except (ArtifactError, CodecError, KeyError, ValueError,
                zipfile.BadZipFile, FileNotFoundError):
            # a corrupted/incomplete entry must never be served: evict it so
            # the recompute heals the cache.  Transient failures (OSError fd
            # pressure, MemoryError) propagate instead of destroying a
            # possibly intact, expensive entry.
            shutil.rmtree(path, ignore_errors=True)
            self.misses += 1
            return _MISS
        self.hits += 1
        return output

    def store(self, key: str, output: Any,
              metadata: Optional[Dict[str, Any]] = None) -> str:
        """Encode and persist ``output`` under ``key`` (replace-on-success)."""
        tree, arrays = encode_value(output)
        final = self.path_for(key)
        parent = os.path.dirname(final)
        os.makedirs(parent, exist_ok=True)
        staging = os.path.join(parent, f".staging-{os.getpid()}-{key}")
        if os.path.exists(staging):
            shutil.rmtree(staging)
        try:
            write_artifact_dir(staging, KIND_STAGE, {"output": tree}, arrays,
                               metadata=metadata)
            # entries are content-addressed and immutable: if the key exists
            # (a concurrent run published it first) keep it — replacing an
            # equivalent entry would only race in-flight readers
            if os.path.isdir(final):
                shutil.rmtree(staging, ignore_errors=True)
                return final
            try:
                os.rename(staging, final)
            except OSError:
                if not os.path.isdir(final):
                    raise
                shutil.rmtree(staging, ignore_errors=True)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final


MISS = _MISS
