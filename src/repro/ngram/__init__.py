"""Request prediction (§5.2): URL tokenization and clustering, the
backoff ngram model, and the Table 3 evaluation harness.
"""

from .._lazy import lazy_exports

__all__ = [
    "TokenizedUrl",
    "tokenize_url",
    "cluster_segment",
    "cluster_url",
    "UrlClusterer",
    "BackoffNgramModel",
    "PopularityPredictor",
    "PerClientRecencyPredictor",
    "TimedNgramModel",
    "TimedPrediction",
    "GapStats",
    "build_timed_client_sequences",
    "build_client_sequences",
    "split_clients",
    "AccuracyResult",
    "evaluate_topk",
    "run_table3",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".baseline": ("PerClientRecencyPredictor", "PopularityPredictor"),
    ".clustering": ("UrlClusterer", "cluster_segment", "cluster_url"),
    ".evaluate": (
        "AccuracyResult", "build_client_sequences",
        "build_timed_client_sequences", "evaluate_topk", "run_table3",
        "split_clients",
    ),
    ".model": ("BackoffNgramModel",),
    ".timing": ("GapStats", "TimedNgramModel", "TimedPrediction"),
    ".tokenize": ("TokenizedUrl", "tokenize_url"),
})
