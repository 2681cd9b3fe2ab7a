"""Result and warm-state stores of the mapping serve tier.

Finished results are kept under their canonical cache key (the engine's
:func:`~repro.engine.jobs.payload_cache_key`) in two tiers:

* an **in-memory LRU** of serialised :class:`~repro.engine.jobs.JobResult`
  documents, answering repeat submissions without touching the engine at
  all, and
* the engine's **on-disk** :class:`~repro.engine.cache.ResultCache` — a
  restart-surviving tier whose key space is *shared*: with the ``repro
  batch`` CLI, and across every replica of a sharded deployment pointed
  at the same cache directory.  A job solved by any of them is a disk
  hit for all of them, which is what makes cross-shard dedupe work when
  the router re-hashes traffic onto a different replica.

The store only ever holds *terminal, deterministic* outcomes (``ok`` and
``failed``); timeouts and crashes are never memoized.

:class:`WarmStateStore` is the second shared-directory channel: replicas
publish the exported :meth:`~repro.ilp.SolveContext.chain_dict` of
finished exact solves under a *warm key* (the job identity minus
mode/gap/timeout), and any replica admitting a job of the same identity
seeds its solve from a sibling's state — cross-replica warm reuse without any
replica-to-replica connection.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..engine.cache import ResultCache
from ..engine.jobs import STATUS_FAILED, STATUS_OK

__all__ = ["ResultStore", "WarmStateStore"]

#: Tier names returned by :meth:`ResultStore.lookup`.
TIER_MEMORY = "memory"
TIER_DISK = "disk"


class ResultStore:
    """In-memory LRU of result documents over an optional disk tier."""

    def __init__(
        self,
        memory_entries: int = 256,
        disk: Optional[ResultCache] = None,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.memory_entries = memory_entries
        self.disk = disk
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._memory)

    def lookup(self, key: str) -> Tuple[Optional[Dict[str, Any]], str]:
        """Return ``(document, tier)`` for ``key``; ``(None, "")`` on a miss.

        Memory first; on a memory miss the disk tier is consulted too —
        that is the admission-time path that turns work finished by a
        *different* process (a batch CLI run, another replica on the same
        cache directory) into an immediate answer instead of a queued
        solve.  Disk hits are promoted into memory.
        """
        document = self._memory.get(key)
        if document is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return document, TIER_MEMORY
        if self.disk is not None:
            document = self.disk.get(key)
            if document is not None and document.get("status") in (
                STATUS_OK,
                STATUS_FAILED,
            ):
                self.disk_hits += 1
                self._remember(key, document)
                return document, TIER_DISK
        self.misses += 1
        return None, ""

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The memoized result document for ``key`` (any tier), or ``None``."""
        return self.lookup(key)[0]

    def put(self, key: str, document: Dict[str, Any]) -> bool:
        """Memoize a finished job's serialised result document.

        Returns ``True`` when stored; non-deterministic outcomes
        (timeout, crash) are refused so a transiently broken job is
        re-attempted on resubmission.

        Deterministic outcomes are also **written through** to the disk
        tier under ``key`` when the engine did not already store them
        there itself (it writes under the key of the payload it actually
        executed — for a warm-seeded solve that differs from the
        submission's admission key, and without the write-through a
        sibling replica could never dedupe against it).
        """
        if document.get("status") not in (STATUS_OK, STATUS_FAILED):
            return False
        self._remember(key, document)
        if self.disk is not None and document.get("cache_key") != key:
            try:
                self.disk.put(key, document)
            except OSError:
                pass  # a full/readonly disk must not fail the job
        return True

    def _remember(self, key: str, document: Dict[str, Any]) -> None:
        self._memory[key] = document
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats(self) -> Dict[str, Any]:
        return {
            "memory_entries": len(self._memory),
            "memory_capacity": self.memory_entries,
            "memory_hits": self.hits,
            "memory_misses": self.misses,
            "store_disk_hits": self.disk_hits,
            "disk": self.disk.stats() if self.disk is not None else None,
        }


class WarmStateStore:
    """Shared directory of exported solve state, keyed by job identity.

    Lives in a ``_warm/`` subdirectory of the engine cache directory (the
    result cache only globs ``*.json`` at its top level, so the two never
    interfere).  Entries are small JSON documents::

        {"warm_key": ..., "source": "<instance>", "chain_context": {...}}

    ``source`` is the writing instance's name, which is how a reader
    distinguishes *reusing its own* state from importing a sibling
    replica's — the ``warm_imports`` counter that proves cross-replica
    reuse in the scale benchmark.  Readers ignore any other keys (entries
    written by older versions may carry a ``signature``).

    Writes are atomic (temp file + :func:`os.replace`) and first-writer
    wins: an entry is never overwritten, because any exporter of the same
    warm key solved the same identity and their states are equivalent.
    ``max_entries`` bounds the shared directory: past it, the oldest
    entries (by mtime) are evicted — warm state is a rolling window of
    *recent* solves, not an archive.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        instance: str = "",
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.instance = instance
        self.max_entries = max_entries
        self.exports = 0
        self.reuses = 0
        self.imports = 0
        self.evictions = 0

    def path_for(self, warm_key: str) -> Path:
        return self.directory / f"{warm_key}.json"

    def get(self, warm_key: str) -> Optional[Dict[str, Any]]:
        """The warm document for ``warm_key``; ``None`` on miss/corruption.

        A readable hit bumps :attr:`reuses`, and additionally
        :attr:`imports` when the entry was written by a different
        instance.
        """
        try:
            document = json.loads(
                self.path_for(warm_key).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(document, dict) or not isinstance(
            document.get("chain_context"), dict
        ):
            return None
        self.reuses += 1
        if document.get("source") != self.instance:
            self.imports += 1
        return document

    def put(
        self, warm_key: str, chain_context: Dict[str, Any]
    ) -> Optional[Path]:
        """Publish ``chain_context`` under ``warm_key`` (first writer wins)."""
        path = self.path_for(warm_key)
        if path.exists():
            return None
        document = {
            "warm_key": warm_key,
            "source": self.instance,
            "chain_context": dict(chain_context),
        }
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=".warm-", suffix=".tmp"
            )
        except FileNotFoundError:
            # The shared directory was cleared by another process between
            # our mkdir and now; recreate and retry once.
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), prefix=".warm-", suffix=".tmp"
            )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.exports += 1
        if self.max_entries is not None:
            self._evict()
        return path

    def _evict(self) -> None:
        """Trim the directory down to ``max_entries``, oldest mtime first.

        Tolerant of concurrent writers/evictors on the shared directory:
        a file another replica removed first is simply skipped.
        """
        try:
            entries = []
            for path in self.directory.glob("*.json"):
                try:
                    entries.append((path.stat().st_mtime, path.name, path))
                except OSError:
                    continue
        except OSError:
            return
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        for _, _, path in sorted(entries)[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        return {
            "exports": self.exports,
            "reuses": self.reuses,
            "imports": self.imports,
            "evictions": self.evictions,
        }
