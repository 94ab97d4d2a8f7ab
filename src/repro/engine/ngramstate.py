"""Mergeable §5.2 ngram states for the sharded engine.

Three mergeable units cover the Table 3 pipeline:

* :class:`NgramSequenceState` — the first map stage.  Each shard
  buffers per-client ``(timestamp, token)`` entries for both the raw
  and the clustered URL variants in one pass; states merge by list
  concatenation and :meth:`sequences` sorts once at the end, so the
  finalized per-client sequences equal
  :func:`repro.ngram.evaluate.build_client_sequences` over the
  unsplit stream under *any* shard split.
* :class:`repro.ngram.model.BackoffNgramModel` — the train stage's
  state.  Its count tables and vocabulary merge losslessly
  (:meth:`~repro.ngram.model.BackoffNgramModel.merge`), so training
  shard-local models over disjoint client sets and merging them
  equals training one model over all sequences.
* :class:`NgramEvalState` — the evaluation stage.  Top-K hit and
  total counters per ``(n, k)`` cell sum exactly.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Tuple

from ..logs.record import RecordChunk, RequestLog, record_chunks
from ..ngram.clustering import SHARED_CLUSTERER

__all__ = ["NgramSequenceState", "NgramEvalState"]

_VARIANTS = (False, True)  # raw, clustered


class NgramSequenceState:
    """Mergeable per-client (timestamp, token) buffers, both variants."""

    def __init__(self, json_only: bool = True, include_domain: bool = True) -> None:
        self.json_only = json_only
        self.include_domain = include_domain
        self.record_count = 0
        #: clustered? → client id → [(timestamp, token), …] (unsorted).
        self._entries: Dict[bool, Dict[str, List[Tuple[float, str]]]] = {
            variant: {} for variant in _VARIANTS
        }

    def update(self, records: Iterable[RequestLog]) -> "NgramSequenceState":
        for chunk in record_chunks(records):
            self.fold(chunk)
        return self

    def fold(self, chunk: RecordChunk) -> None:
        """Fold one chunk; mirrors ``build_client_sequences`` exactly.

        Each distinct URL of the chunk is clustered once; entries are
        appended in record order.
        """
        records = chunk.records
        self.record_count += len(records)
        clients = chunk.client_ids
        raw_tokens = chunk.object_ids  # domain + URL
        if self.json_only:
            is_json = chunk.is_json
            records = list(compress(records, is_json))
            clients = list(compress(clients, is_json))
            raw_tokens = list(compress(raw_tokens, is_json))
        urls = [record.url for record in records]
        clustered = {url: SHARED_CLUSTERER(url) for url in dict.fromkeys(urls)}
        if self.include_domain:
            clustered_tokens = [
                f"{record.domain}{clustered[url]}"
                for record, url in zip(records, urls)
            ]
        else:
            raw_tokens = urls
            clustered_tokens = [clustered[url] for url in urls]
        timestamps = [record.timestamp for record in records]
        for variant, tokens in ((False, raw_tokens), (True, clustered_tokens)):
            buffered = self._entries[variant]
            for client_id, entry in zip(clients, zip(timestamps, tokens)):
                entries = buffered.get(client_id)
                if entries is None:
                    buffered[client_id] = [entry]
                else:
                    entries.append(entry)

    def merge(self, other: "NgramSequenceState") -> "NgramSequenceState":
        if (other.json_only, other.include_domain) != (
            self.json_only,
            self.include_domain,
        ):
            raise ValueError("cannot merge ngram states with different settings")
        self.record_count += other.record_count
        for variant in _VARIANTS:
            mine = self._entries[variant]
            for client_id, entries in other._entries[variant].items():
                buffered = mine.get(client_id)
                if buffered is None:
                    mine[client_id] = list(entries)
                else:
                    buffered.extend(entries)
        return self

    def sequences(self, clustered: bool = False) -> Dict[str, List[str]]:
        """Finalized per-client token sequences for one variant.

        Clients come out in sorted-id order (the canonical parallel
        ordering); each sequence is time-ordered exactly as
        ``build_client_sequences`` orders it (sorted by
        ``(timestamp, token)``).
        """
        buffered = self._entries[clustered]
        return {
            client_id: [token for _, token in sorted(buffered[client_id])]
            for client_id in sorted(buffered)
        }

    def canonical(self):
        """Order-independent value for merge-property comparisons."""
        return (
            self.json_only,
            self.include_domain,
            self.record_count,
            {
                variant: {
                    client: tuple(sorted(entries))
                    for client, entries in per_client.items()
                }
                for variant, per_client in self._entries.items()
            },
        )


class NgramEvalState:
    """Mergeable top-K accuracy counters, one per (n, k) cell."""

    def __init__(self) -> None:
        self.correct: Dict[Tuple[int, int], int] = {}
        self.total: Dict[Tuple[int, int], int] = {}

    def record(self, n: int, k: int, correct: int, total: int) -> None:
        key = (n, k)
        self.correct[key] = self.correct.get(key, 0) + correct
        self.total[key] = self.total.get(key, 0) + total

    def merge(self, other: "NgramEvalState") -> "NgramEvalState":
        for key, count in other.correct.items():
            self.correct[key] = self.correct.get(key, 0) + count
        for key, count in other.total.items():
            self.total[key] = self.total.get(key, 0) + count
        return self

    def canonical(self):
        return (dict(self.correct), dict(self.total))
