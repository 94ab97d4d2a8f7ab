"""Edge-server request-log substrate.

This package stands in for the CDN log pipeline the paper reads from:
record types and their field contract (:mod:`repro.logs.record`),
keyed IP anonymization (:mod:`repro.logs.anonymize`), streaming
serialization with the one line decoder every reader shares
(:mod:`repro.logs.io`), partitioned directories
(:mod:`repro.logs.partition`), and single-pass dataset summaries
(:mod:`repro.logs.summary`).
"""

from .._lazy import lazy_exports

__all__ = [
    "CacheStatus",
    "HttpMethod",
    "RequestLog",
    "client_key",
    "object_key",
    "IpAnonymizer",
    "generate_key",
    "read_jsonl",
    "write_jsonl",
    "read_tsv",
    "write_tsv",
    "read_logs",
    "write_logs",
    "bucket_name",
    "write_partitioned",
    "read_partitioned",
    "iter_partition_files",
    "merge_sorted",
    "merge_files",
    "split_by_edge",
    "is_time_ordered",
    "DatasetSummary",
    "summarize",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".anonymize": ("IpAnonymizer", "generate_key"),
    ".partition": (
        "bucket_name", "iter_partition_files", "read_partitioned",
        "write_partitioned",
    ),
    ".merge": (
        "is_time_ordered", "merge_files", "merge_sorted", "split_by_edge",
    ),
    ".io": (
        "read_jsonl", "read_logs", "read_tsv", "write_jsonl", "write_logs",
        "write_tsv",
    ),
    ".record": (
        "CacheStatus", "HttpMethod", "RequestLog", "client_key", "object_key",
    ),
    ".summary": ("DatasetSummary", "summarize"),
})
