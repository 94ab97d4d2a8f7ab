"""URL clustering (Klotski-style argument clustering, §5.2).

Raw URLs embed per-object and per-client identifiers —
``/api/v1/item/48121``, ``/search?q=trending&uid=8f3a`` — which
fragment the transition statistics.  Clustering replaces identifier-
like parts with typed placeholders so that structurally identical
requests share one token:

``/api/v1/item/48121``  →  ``/api/v1/item/<num>``
``/search?q=trending``  →  ``/search?q=<str>``

The paper evaluates the ngram model on both raw and clustered URLs
(Table 3); clustered accuracy is higher because it captures the
application's *screen graph* rather than individual objects.
"""

from __future__ import annotations

import re
from typing import Tuple

from .tokenize import TokenizedUrl, tokenize_url

__all__ = [
    "cluster_segment", "cluster_url", "UrlClusterer", "SHARED_CLUSTERER",
]

_NUM_RE = re.compile(r"^\d+$")
_HEX_RE = re.compile(r"^[0-9a-fA-F]{8,}$")
_UUID_RE = re.compile(
    r"^[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}"
    r"-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}$"
)
_MIXED_ID_RE = re.compile(r"^(?=.*\d)[A-Za-z0-9_-]{6,}$")


_PLACEHOLDER_RE = re.compile(r"^<[a-z]+>$")


def cluster_segment(segment: str) -> str:
    """Map one path segment to its cluster token (idempotent)."""
    if _PLACEHOLDER_RE.match(segment):
        return segment
    if _NUM_RE.match(segment):
        return "<num>"
    if _UUID_RE.match(segment):
        return "<uuid>"
    if _HEX_RE.match(segment):
        return "<hex>"
    if _MIXED_ID_RE.match(segment):
        return "<id>"
    return segment


def _cluster_arg_value(value: str) -> str:
    if value == "" or _PLACEHOLDER_RE.match(value):
        return value
    if _NUM_RE.match(value):
        return "<num>"
    if _UUID_RE.match(value):
        return "<uuid>"
    if _HEX_RE.match(value):
        return "<hex>"
    return "<str>"


def cluster_url(url: str) -> str:
    """Cluster a URL: typed path segments, typed + sorted query args.

    Argument *names* are structure and survive; argument *values* are
    data and are typed away.  Args are sorted by name so permutations
    of the same argument set cluster together.
    """
    tokenized = tokenize_url(url)
    segments = tuple(cluster_segment(s) for s in tokenized.path_segments)
    args = tuple(
        sorted(
            (key, _cluster_arg_value(value))
            for key, value in tokenized.query_args
        )
    )
    return TokenizedUrl(path_segments=segments, query_args=args).render()


class UrlClusterer:
    """Memoizing clusterer for dataset-scale runs.

    The same URLs repeat millions of times in real logs; memoizing the
    pure function is a large constant-factor win.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        self._memo: dict = {}
        self._max_entries = max_entries

    def __call__(self, url: str) -> str:
        cached = self._memo.get(url)
        if cached is not None:
            return cached
        result = cluster_url(url)
        if len(self._memo) >= self._max_entries:
            self._memo.clear()
        self._memo[url] = result
        return result


#: Process-wide clusterer: every ngram state (engine shard or stream
#: window) shares its bounded memo, as user agents share
#: :data:`~repro.useragent.classify.SHARED_CLASSIFIER`.
SHARED_CLUSTERER = UrlClusterer()
