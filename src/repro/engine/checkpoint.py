"""Per-shard checkpointing: interrupted runs resume, not restart.

A :class:`CheckpointStore` maps shard ids to serialized partial
states on disk.  The executor consults it before running a shard and
persists each freshly computed state, so killing a run mid-way loses
at most the shards in flight; a re-run with the same checkpoint
directory loads the finished shards and computes only the rest.

On-disk format (documented for ``docs/engine.md``): one file per
shard, named ``<sanitized shard id>-<8-hex id hash>.ckpt``, holding a
pickled envelope::

    {"format": "repro-engine-checkpoint", "version": 2,
     "shard_id": <original id>,
     "payload": <pickled partial state, as bytes>,
     "checksum": <blake2b-128 hex digest of the payload bytes>}

The payload is pickled separately so the checksum covers its exact
byte representation; :meth:`load` recomputes and compares it, which
catches bit-rot and partial overwrites that still unpickle cleanly.
Any other version — including the checksum-less v1 envelope — fails
to load like any unreadable file, so its shard is recomputed.

Durability: writes go temp-file → ``fsync`` → ``os.replace``, so a
kill (or power loss, up to filesystem guarantees) during a save never
leaves a truncated checkpoint under the real name.  Loads verify the
envelope, the embedded shard id, and the checksum, raising
:class:`CheckpointError` for anything malformed — which the executor
treats as "not checkpointed" and recomputes, never crashes
(:attr:`~repro.engine.executor.RunReport.recomputed_checkpoints`).

``checkpoint.torn`` / ``checkpoint.corrupt`` fault hooks (see
``repro.faults``) simulate exactly those failure modes by damaging
the bytes at save time, after the real state has been returned to the
caller — a torn checkpoint affects the *next* run's resume, never the
run that wrote it.
"""

from __future__ import annotations

import os
import pickle
import re
import time
from hashlib import blake2b
from pathlib import Path
from typing import Any, List, Optional, Union

from ..faults import runtime as fault_runtime
from ..obs import runtime as obs_runtime

__all__ = ["CheckpointStore", "CheckpointError"]

_FORMAT = "repro-engine-checkpoint"
_VERSION = 2
_SUFFIX = ".ckpt"
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _checksum(payload_bytes: bytes) -> str:
    return blake2b(payload_bytes, digest_size=16).hexdigest()


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used."""


class CheckpointStore:
    """Directory of per-shard partial states, keyed by shard id.

    ``load`` always returns a fresh object: payloads are unpickled
    per call and never cached, so callers (the executor merges states
    in place) may mutate what they get back without corrupting later
    loads.  Subclasses that add caching must preserve this contract —
    the executor defends against the merge base specifically, but
    fresh-per-load is the documented API.

    ``state_type``, when given, is the type every payload must have: a
    checkpoint holding anything else (a state from before the stage's
    state type changed) fails to load with :class:`CheckpointError`,
    so the executor recomputes that shard instead of merging it.
    """

    def __init__(
        self, directory: Union[str, Path], state_type: Optional[type] = None
    ) -> None:
        self.directory = Path(directory)
        self.state_type = state_type
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, shard_id: str) -> Path:
        """Filesystem-safe, collision-free file path for a shard id."""
        stem = _UNSAFE.sub("_", shard_id)[:80]
        digest = blake2b(shard_id.encode("utf-8"), digest_size=4).hexdigest()
        return self.directory / f"{stem}-{digest}{_SUFFIX}"

    def has(self, shard_id: str) -> bool:
        return self.path_for(shard_id).is_file()

    def save(self, shard_id: str, payload: Any) -> Path:
        """Atomically persist one shard's partial state.

        temp file → ``fsync`` → ``os.replace``: the real name only
        ever points at a complete, flushed file.
        """
        started = time.perf_counter()
        payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        # Checksum the pristine bytes first: the corrupt-fault hook
        # damages the payload *after* checksumming, exactly like
        # post-write bit-rot would.
        checksum = _checksum(payload_bytes)
        payload_bytes = self._fault_damage(shard_id, payload_bytes)
        envelope = {
            "format": _FORMAT,
            "version": _VERSION,
            "shard_id": shard_id,
            "payload": payload_bytes,
            "checksum": checksum,
        }
        data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        data = self._fault_tear(shard_id, data)
        path = self.path_for(shard_id)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        obs_runtime.inc("checkpoint.saves")
        obs_runtime.observe("checkpoint.save_bytes", len(data))
        obs_runtime.observe(
            "checkpoint.save_seconds", time.perf_counter() - started
        )
        return path

    def load(self, shard_id: str) -> Any:
        """Load one shard's partial state, verifying envelope + checksum."""
        started = time.perf_counter()
        try:
            payload = self._load_verified(shard_id)
            if self.state_type is not None and not isinstance(
                payload, self.state_type
            ):
                raise CheckpointError(
                    f"{self.path_for(shard_id)} holds a "
                    f"{type(payload).__name__}, not a "
                    f"{self.state_type.__name__}"
                )
        except CheckpointError:
            # The executor recomputes on this path; count it so
            # checkpoint rot is visible before it becomes rework.
            obs_runtime.inc("checkpoint.load_failures")
            raise
        obs_runtime.inc("checkpoint.loads")
        obs_runtime.observe(
            "checkpoint.load_seconds", time.perf_counter() - started
        )
        return payload

    def _load_verified(self, shard_id: str) -> Any:
        path = self.path_for(shard_id)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            raise
        except Exception as exc:  # truncated/corrupt pickle
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != _FORMAT
            or envelope.get("version") != _VERSION
        ):
            raise CheckpointError(f"{path} is not a v{_VERSION} engine checkpoint")
        if envelope.get("shard_id") != shard_id:
            raise CheckpointError(
                f"{path} holds shard {envelope.get('shard_id')!r}, "
                f"expected {shard_id!r}"
            )
        payload_bytes = envelope.get("payload")
        if not isinstance(payload_bytes, bytes):
            raise CheckpointError(f"{path} has a non-bytes v{_VERSION} payload")
        if _checksum(payload_bytes) != envelope.get("checksum"):
            raise CheckpointError(
                f"checksum mismatch in {path}: checkpoint bytes were "
                f"corrupted after write"
            )
        try:
            return pickle.loads(payload_bytes)
        except Exception as exc:
            raise CheckpointError(f"undecodable payload in {path}: {exc}") from exc

    def completed_ids(self) -> List[str]:
        """Shard ids with a readable checkpoint, sorted."""
        ids: List[str] = []
        for path in sorted(self.directory.glob(f"*{_SUFFIX}")):
            try:
                with open(path, "rb") as handle:
                    envelope = pickle.load(handle)
                if (
                    isinstance(envelope, dict)
                    and envelope.get("format") == _FORMAT
                ):
                    ids.append(str(envelope["shard_id"]))
            except Exception:
                continue
        return sorted(ids)

    # -- fault hooks (no-ops unless a plan is installed) ------------------

    @staticmethod
    def _fault_damage(shard_id: str, payload_bytes: bytes) -> bytes:
        """``checkpoint.corrupt``: flip one payload byte post-checksum.

        The envelope still unpickles and carries the checksum of the
        pristine bytes, so the load path must fail on the checksum
        comparison — this is the fault that distinguishes checksum
        validation from mere unpickle-success.
        """
        if fault_runtime.should_fire("checkpoint.corrupt", shard_id) is None:
            return payload_bytes
        damaged = bytearray(payload_bytes)
        damaged[len(damaged) // 2] ^= 0xFF
        return bytes(damaged)

    @staticmethod
    def _fault_tear(shard_id: str, data: bytes) -> bytes:
        """``checkpoint.torn``: keep only the first half of the file.

        Simulates a crash mid-write of a non-atomic writer (or a
        filesystem that lost the tail); the resulting file fails to
        unpickle and must read as "not checkpointed".
        """
        if fault_runtime.should_fire("checkpoint.torn", shard_id) is None:
            return data
        return data[: len(data) // 2]
