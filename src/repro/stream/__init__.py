"""Online windowed analysis: the batch pipelines as a service.

The batch pipelines answer "what did this dataset look like"; this
subsystem answers the question the paper's use cases (prefetching,
cache tuning — §6) actually ask: "what does the traffic look like
*right now*, and how is it drifting?"  It turns the sharded engine's
mergeable states into continuously maintained per-window results:

* :mod:`repro.stream.sources` / :mod:`repro.stream.ingest` — file,
  directory, tail and stdin sources, all decoded by the one
  :mod:`repro.logs.io` line loop and read through one k-way merge on
  the consuming thread, or through a bounded queue that sheds and
  counts records under the ``drop`` policy;
* :mod:`repro.stream.windows` — event-time tumbling/sliding windows
  with watermark-based sealing and late-record accounting;
* :mod:`repro.stream.accumulators` — per-window state is exactly the
  engine's :class:`~repro.engine.state.CharacterizationState`,
  :class:`~repro.engine.flowstate.FlowCollectionState` and
  :class:`~repro.engine.ngramstate.NgramSequenceState`, so merging
  all sealed windows of a replay reproduces the batch results;
* :mod:`repro.stream.snapshots` — per-window JSON share /
  cacheability / periods / top-K next-URL snapshots with
  cross-window drift deltas, emitted as JSONL;
* :mod:`repro.stream.service` — the assembled service, checkpointing
  every sealed window through :mod:`repro.engine.checkpoint` so a
  killed stream resumes at the first unsealed window.

See ``docs/streaming.md`` for the windowing model and the
resume-from-checkpoint walkthrough.
"""

from .._lazy import lazy_exports

__all__ = [
    "ALL_TRACKS",
    "IngestStage",
    "IngestStats",
    "JsonlEmitter",
    "SnapshotBuilder",
    "StreamConfig",
    "StreamResult",
    "StreamService",
    "WatermarkClock",
    "WindowAccumulator",
    "WindowBounds",
    "WindowManager",
    "WindowSnapshot",
    "WindowSpec",
    "merge_accumulators",
    "merged_characterization",
    "merged_ngram",
    "merged_pattern_report",
    "merged_periodicity",
    "stdin_source",
    "window_id",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".accumulators": (
        "ALL_TRACKS", "WindowAccumulator", "merge_accumulators",
        "merged_characterization", "merged_ngram", "merged_pattern_report",
        "merged_periodicity",
    ),
    ".ingest": ("IngestStage", "IngestStats"),
    ".service": ("StreamConfig", "StreamResult", "StreamService", "window_id"),
    ".snapshots": ("JsonlEmitter", "SnapshotBuilder", "WindowSnapshot"),
    ".sources": ("stdin_source",),
    ".windows": (
        "WatermarkClock", "WindowBounds", "WindowManager", "WindowSpec",
    ),
})
