"""Command-line interface.

Subcommands mirror the reproduction workflow::

    repro-json-cdn generate  --dataset short --requests 100000 --out logs.jsonl.gz
    repro-json-cdn characterize --logs logs.jsonl.gz
    repro-json-cdn characterize --logs-dir parts/ --workers 4
    repro-json-cdn patterns  --dataset long --requests 60000
    repro-json-cdn periodicity --dataset long --workers 4
    repro-json-cdn ngram --dataset long --workers 4
    repro-json-cdn trend
    repro-json-cdn paper     --requests 60000
    repro-json-cdn stream --logs-dir parts/ --window 300 --watermark 60 \
        --emit windows.jsonl --checkpoint-dir ckpt/

``generate`` writes a synthetic dataset to disk; the analysis
commands accept ``--logs <file>``, ``--logs-dir <partitioned dir>``
(the layout written by ``repro.logs.partition``; anything else is a
usage error), or generate a dataset on the fly.  Each analysis
command (``characterize``, ``patterns``, ``periodicity``, ``ngram``,
``paper``) builds one ``repro.engine.EngineOptions`` from
``--workers``/``--shard-timeout``/``--retries``/``--lenient`` (and
``--checkpoint-dir``, which makes the run resumable) and calls one
entry point of ``repro.core.pipeline``, which always runs the sharded
engine: ``--workers 1`` is the engine at one worker, so output does
not depend on the worker count.  ``paper`` runs the whole evaluation
and prints every table and figure.  ``replay`` runs no engine stage
and takes only the input flags.  ``stream``
runs the online windowed service (``repro.stream``) over a file, a
partitioned directory, a growing file (``--follow``) or stdin,
emitting one JSONL snapshot per sealed event-time window and resuming
sealed windows from ``--checkpoint-dir`` after a kill.

Every analysis command, ``replay`` and ``stream`` also accept ``--metrics
FILE`` (export a metrics snapshot after the run: Prometheus text
exposition, or the JSON snapshot with a ``.json`` suffix) and
``--trace FILE`` (recorded stage spans as JSONL) — see
``repro.obs``.

Import discipline: this module imports only the standard library at
module level, and each ``_cmd_*`` handler imports the modules it
runs.  Building the parser, ``--help`` and a usage error load nothing
from the analysis layers, and ``characterize`` loads neither numpy
nor the synthetic-traffic generator when it reads ``--logs`` or
``--logs-dir`` (see ``docs/architecture.md``).  Numeric options are
range-checked by their argparse ``type``, so a bad value exits 2 with
``repro-json-cdn <command>: error: argument --X: ...``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import zlib
from pathlib import Path
from typing import Callable, List, Optional, Union

__all__ = ["main", "build_parser"]


def _bounded(
    kind: Callable[[str], Union[int, float]],
    minimum: float,
    strict: bool = False,
) -> Callable[[str], Union[int, float]]:
    """An argparse ``type`` that parses ``kind`` and checks its range.

    ``strict`` requires ``value > minimum``, otherwise
    ``value >= minimum``; NaN fails both.  An unparsable string still
    reads "invalid int value" (argparse names the type by
    ``__name__``).
    """

    def parse(text: str) -> Union[int, float]:
        value = kind(text)
        if not (value > minimum if strict else value >= minimum):
            bound = f"> {minimum}" if strict else f">= {minimum}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


#: Range-checked argparse types shared by several options.
_POSITIVE_INT = _bounded(int, 1)
_NONNEGATIVE_INT = _bounded(int, 0)
_POSITIVE_FLOAT = _bounded(float, 0, strict=True)
_NONNEGATIVE_FLOAT = _bounded(float, 0)
#: The period detector needs at least two permuted series.
_PERMUTATIONS = _bounded(int, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-json-cdn",
        description="Reproduction of 'Characterizing JSON Traffic Patterns on a CDN' (IMC 2019)",
        allow_abbrev=False,
    )
    # No prefix matching anywhere: ``--worker`` must not mean ``--workers``.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(
            argparse.ArgumentParser, allow_abbrev=False
        ),
    )

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics", metavar="FILE", dest="metrics",
            help="write a metrics snapshot after the run "
                 "(.json for the JSON snapshot, anything else for "
                 "Prometheus text exposition)",
        )
        p.add_argument(
            "--trace", metavar="FILE", dest="trace",
            help="write recorded stage spans as JSONL after the run",
        )

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dataset",
            choices=("short", "long"),
            default="short",
            help="dataset shape (Table 2): short=10min wide, long=24h narrow",
        )
        p.add_argument("--requests", type=int, default=50_000,
                       help="target JSON request count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--logs", metavar="FILE",
                       help="read logs from FILE instead of generating")

    def add_input_args(p: argparse.ArgumentParser) -> None:
        """Dataset flags plus the inputs and telemetry of a log reader."""
        add_dataset_args(p)
        p.add_argument(
            "--logs-dir", metavar="DIR",
            help="read logs from a partitioned directory "
                 "(repro.logs.partition layout) instead of generating",
        )
        p.add_argument(
            "--lenient", action="store_true",
            help="skip (and count) malformed log lines instead of "
                 "failing the read",
        )
        add_obs_args(p)

    def add_engine_args(
        p: argparse.ArgumentParser, checkpoint: bool = True
    ) -> None:
        """Input flags plus the sharded engine's knobs."""
        add_input_args(p)
        p.add_argument(
            "--workers", type=_POSITIVE_INT, default=1,
            help="worker count for the sharded analysis engine "
                 "(1 = serial)",
        )
        p.add_argument(
            "--shard-timeout", type=_POSITIVE_FLOAT, default=None,
            metavar="SECONDS", dest="shard_timeout",
            help="abandon a pooled shard attempt after this many "
                 "seconds and retry it (thread/process backends)",
        )
        p.add_argument(
            "--retries", type=_NONNEGATIVE_INT, default=0,
            help="extra attempts per failed or timed-out shard, "
                 "with exponential backoff",
        )
        if checkpoint:
            p.add_argument(
                "--checkpoint-dir", metavar="DIR",
                help="persist per-shard partial states for resumable runs",
            )

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    add_dataset_args(gen)
    gen.add_argument("--out", required=True, metavar="FILE",
                     help="output path (.jsonl/.tsv, optionally .gz)")

    cha = sub.add_parser("characterize", help="run the §4 characterization")
    add_engine_args(cha)

    pat = sub.add_parser("patterns", help="run the §5 pattern analyses")
    add_engine_args(pat)
    pat.add_argument("--permutations", type=_PERMUTATIONS, default=100,
                     help="permutation count x for the period detector")

    per = sub.add_parser(
        "periodicity", help="run the §5.1 periodicity analysis"
    )
    add_engine_args(per)
    per.add_argument("--permutations", type=_PERMUTATIONS, default=100,
                     help="permutation count x for the period detector")

    ngram = sub.add_parser(
        "ngram", help="run the §5.2 ngram prediction sweep (Table 3)"
    )
    add_engine_args(ngram)
    ngram.add_argument("--order", type=_POSITIVE_INT, default=1,
                       help="maximum ngram history length N")

    trend = sub.add_parser("trend", help="print the Figure 1 ratio series")
    trend.add_argument("--seed", type=int, default=0)

    stream = sub.add_parser(
        "stream",
        help="online windowed analysis service (event-time windows, "
             "watermarks, resumable checkpoints)",
    )
    add_dataset_args(stream)
    stream.add_argument(
        "--logs-dir", metavar="DIR",
        help="stream a partitioned log directory "
             "(repro.logs.partition layout)",
    )
    stream.add_argument(
        "--follow", metavar="FILE",
        help="tail a growing JSONL/TSV file instead of replaying",
    )
    stream.add_argument(
        "--stdin", action="store_true",
        help="read JSONL records from standard input",
    )
    stream.add_argument("--window", type=_POSITIVE_FLOAT, default=300.0,
                        help="window width in seconds")
    stream.add_argument(
        "--slide", type=_POSITIVE_FLOAT, default=None,
        help="slide in seconds (omit for tumbling windows)",
    )
    stream.add_argument(
        "--watermark", type=_NONNEGATIVE_FLOAT, default=0.0,
        help="watermark lag in seconds: the event-time disorder budget",
    )
    stream.add_argument(
        "--emit", metavar="FILE",
        help="append one JSONL snapshot per sealed window "
             "('-' for stdout)",
    )
    stream.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist sealed windows; a restarted stream resumes "
             "without double-counting them",
    )
    stream.add_argument(
        "--ingest-workers", type=_POSITIVE_INT, default=1,
        help="has no effect: every source is read on the consuming "
             "thread",
    )
    stream.add_argument(
        "--queue-size", type=_POSITIVE_INT, default=65_536,
        help="capacity (records) of the ingest queue that "
             "--queue-policy drop reads through",
    )
    stream.add_argument(
        "--queue-policy", choices=("block", "drop"), default="block",
        help="block: read the sources on the consuming thread, so a "
             "slow analysis slows the read and nothing is lost; drop: "
             "a reader thread feeds a bounded queue and sheds (and "
             "counts) records when it is full",
    )
    stream.add_argument("--permutations", type=_PERMUTATIONS, default=20,
                        help="period-detector permutations per window")
    stream.add_argument("--top-k", type=_POSITIVE_INT, default=5,
                        help="predicted next URLs per window snapshot")
    stream.add_argument(
        "--no-periods", action="store_true",
        help="skip per-window period detection (cheaper seals)",
    )
    stream.add_argument(
        "--no-predictions", action="store_true",
        help="skip the per-window ngram prediction model",
    )
    stream.add_argument(
        "--idle-polls", type=int, default=20,
        help="with --follow: stop after this many consecutive empty "
             "polls (0 = follow forever)",
    )
    add_obs_args(stream)

    paper = sub.add_parser("paper", help="reproduce every table and figure")
    add_engine_args(paper, checkpoint=False)

    validate = sub.add_parser(
        "validate",
        help="check a generated dataset against the paper's calibration targets",
    )
    validate.add_argument("--dataset", choices=("short", "long"), default="short")
    validate.add_argument("--requests", type=int, default=50_000)
    validate.add_argument("--seed", type=int, default=0)

    replay = sub.add_parser(
        "replay",
        help="what-if TTL sweep: replay a JSON trace under alternative policies",
    )
    add_input_args(replay)
    replay.add_argument(
        "--ttls",
        default="30,300,3600",
        help="comma-separated TTLs (seconds) to sweep",
    )
    replay.add_argument("--edges", type=int, default=3,
                        help="edge caches to spread clients across")

    sub.add_parser("experiments", help="list every reproducible artifact")
    return parser


def _build_dataset(args: argparse.Namespace):
    from .synth.workload import (
        WorkloadBuilder,
        long_term_config,
        short_term_config,
    )

    config = (
        short_term_config(args.requests, seed=args.seed)
        if args.dataset == "short"
        else long_term_config(args.requests, seed=args.seed)
    )
    return WorkloadBuilder(config).build()


class _ReadFailed(Exception):
    """A ``--logs``/``--logs-dir`` read failed: a file that does not
    decode, or a malformed line outside ``--lenient``."""


def _load_or_generate(args: argparse.Namespace):
    on_error = "skip" if getattr(args, "lenient", False) else "raise"
    if getattr(args, "logs_dir", None):
        from .logs.partition import read_partitioned

        records = read_partitioned(args.logs_dir, on_error=on_error)
    elif args.logs:
        from .logs.io import read_logs

        records = read_logs(args.logs, on_error=on_error)
    else:
        dataset = _build_dataset(args)
        categories = {d.name: d.category.value for d in dataset.domains}
        return dataset.logs, categories
    # What a strict read of a damaged file raises: a malformed line or
    # undecodable text (ValueError), a file that is not gzip or not
    # readable (OSError), a cut or corrupt gzip member.
    try:
        return list(records), None
    except (ValueError, OSError, EOFError, zlib.error) as error:
        from .logs.io import describe_read_error

        raise _ReadFailed(describe_read_error(error)) from error


def _analysis_inputs(args: argparse.Namespace):
    """``(logs, domain_categories, logs_dir)`` of an engine command.

    A partitioned directory goes to the engine as is (its shards
    stream their own files, nothing materializes up front); a log
    file or a generated dataset arrives as records.
    """
    if args.logs_dir:
        return None, None, args.logs_dir
    logs, categories = _load_or_generate(args)
    return logs, categories, None


def _engine_options(args: argparse.Namespace):
    """The one :class:`~repro.engine.options.EngineOptions` of a run."""
    from .engine.options import EngineOptions

    return EngineOptions(
        workers=args.workers,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        shard_timeout_s=args.shard_timeout,
        retries=args.retries,
        lenient=args.lenient,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from .logs.io import write_logs

    dataset = _build_dataset(args)
    count = write_logs(dataset.logs, args.out)
    print(f"wrote {count} logs to {args.out}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .core.pipeline import run_characterization

    logs, categories, logs_dir = _analysis_inputs(args)
    report = run_characterization(
        logs, categories, logs_dir=logs_dir, engine=_engine_options(args)
    )
    print(report.render(args.dataset))
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    from .core.pipeline import run_pattern_analysis
    from .periodicity.config import DetectorConfig

    logs, _, logs_dir = _analysis_inputs(args)
    report = run_pattern_analysis(
        logs,
        logs_dir=logs_dir,
        detector_config=DetectorConfig(permutations=args.permutations),
        engine=_engine_options(args),
    )
    print(report.render())
    return 0


def _cmd_periodicity(args: argparse.Namespace) -> int:
    from .core.pipeline import render_periodicity, run_periodicity
    from .periodicity.config import DetectorConfig

    logs, _, logs_dir = _analysis_inputs(args)
    report = run_periodicity(
        logs,
        logs_dir=logs_dir,
        detector_config=DetectorConfig(permutations=args.permutations),
        engine=_engine_options(args),
    )
    print(render_periodicity(report))
    return 0


def _cmd_ngram(args: argparse.Namespace) -> int:
    from .core.pipeline import render_ngram, run_ngram

    logs, _, logs_dir = _analysis_inputs(args)
    results = run_ngram(
        logs,
        logs_dir=logs_dir,
        ns=tuple(range(1, args.order + 1)),
        engine=_engine_options(args),
    )
    print(render_ngram(results))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from .analysis.trend import analyze_trend
    from .core.report import render_bar_chart
    from .synth.trend import TrendModel

    model = TrendModel(seed=args.seed)
    analysis = analyze_trend(model.series())
    yearly = [
        (label, ratio)
        for label, ratio in analysis.series
        if label.endswith(("-01", "-06"))
    ]
    print(
        render_bar_chart(
            yearly,
            title="Figure 1 — JSON:HTML request ratio",
            value_format="{:.2f}x",
        )
    )
    print(f"\ngrowth over window: {analysis.growth_factor:.1f}x "
          f"(end ratio {analysis.end_ratio:.2f}x)")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.pipeline import run_stream
    from .core.report import render_table
    from .periodicity.config import DetectorConfig
    from .logs.io import read_logs, tail_records
    from .stream import JsonlEmitter, stdin_source

    detector_config = DetectorConfig(permutations=args.permutations)
    kwargs = dict(
        window_s=args.window,
        slide_s=args.slide,
        watermark_lag_s=args.watermark,
        detector_config=detector_config,
        detect_periods=not args.no_periods,
        predict_urls=not args.no_predictions,
        top_k=args.top_k,
        queue_capacity=args.queue_size,
        queue_policy=args.queue_policy,
        checkpoint_dir=args.checkpoint_dir,
    )
    emitter = None
    if args.emit == "-":
        emitter = JsonlEmitter(sys.stdout)
    elif args.emit:
        emitter = JsonlEmitter(args.emit)
    try:
        if args.follow:
            source = tail_records(
                args.follow,
                idle_polls=args.idle_polls if args.idle_polls else None,
            )
            result = run_stream(source, emit=emitter, **kwargs)
        elif args.stdin:
            result = run_stream(stdin_source(), emit=emitter, **kwargs)
        elif getattr(args, "logs_dir", None):
            result = run_stream(logs_dir=args.logs_dir, emit=emitter, **kwargs)
        elif args.logs:
            source = read_logs(args.logs, on_error="skip")
            result = run_stream(source, emit=emitter, **kwargs)
        else:
            dataset = _build_dataset(args)
            result = run_stream(dataset.logs, emit=emitter, **kwargs)
    finally:
        if emitter is not None and args.emit != "-":
            emitter.close()

    first_start = (
        result.snapshots[0].window_start if result.snapshots else 0.0
    )
    rows = []
    for snapshot in result.snapshots:
        rows.append(
            [
                f"+{snapshot.window_start - first_start:.0f}s",
                snapshot.records,
                f"{snapshot.json_share * 100:.1f}%",
                f"{snapshot.uncacheable_share * 100:.1f}%",
                snapshot.unique_clients,
                snapshot.periodic_objects,
                ",".join(sorted(snapshot.drift)) or "-",
            ]
        )
    print(
        render_table(
            ["window", "records", "json", "no-store", "clients",
             "periodic", "drifted"],
            rows,
            title=(
                f"Stream windows ({args.window:.0f}s"
                + (f"/{args.slide:.0f}s slide" if args.slide else "")
                + f", watermark {args.watermark:.0f}s)"
            ),
        )
    )
    print()
    print(
        f"sealed {result.sealed_windows} windows"
        + (
            f" (+{result.resumed_windows} resumed from checkpoint)"
            if result.resumed_windows
            else ""
        )
        + f"; {result.records_windowed:,} records windowed, "
        f"{result.late_dropped} late-dropped, "
        f"{result.resumed_skips} resumed-skips"
    )
    if result.ingest is not None:
        stats = result.ingest.snapshot()
        print(
            f"ingest: {stats['delivered']:,} delivered, queue peak "
            f"{stats['queue_peak']}, dropped {stats['dropped']}"
        )
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from .core.pipeline import run_characterization, run_pattern_analysis

    _cmd_trend(args)
    print()
    logs, categories, logs_dir = _analysis_inputs(args)
    engine = _engine_options(args)
    report = run_characterization(
        logs, categories, logs_dir=logs_dir, engine=engine
    )
    print(report.render(args.dataset))
    print()
    print(run_pattern_analysis(logs, logs_dir=logs_dir, engine=engine).render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .synth.validation import validate_dataset

    dataset = _build_dataset(args)
    report = validate_dataset(dataset)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .core.inventory import EXPERIMENTS
    from .core.report import render_table

    rows = [
        [exp.experiment_id, exp.kind, exp.title, exp.benchmark]
        for exp in EXPERIMENTS
    ]
    print(render_table(["id", "kind", "artifact", "benchmark"], rows,
                       title="Experiment inventory"))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .cdn.replay import WhatIfReplayer
    from .core.report import render_table

    logs, _ = _load_or_generate(args)
    replayer = WhatIfReplayer(logs)
    ttls = [float(value) for value in args.ttls.split(",") if value]
    outcomes = replayer.ttl_sweep(ttls, num_edges=args.edges)
    rows = [
        [
            outcome.policy.name,
            f"{outcome.hit_ratio:.3f}",
            f"{outcome.origin_fraction:.3f}",
            f"{outcome.origin_bytes / 1e6:.1f} MB",
        ]
        for outcome in outcomes
    ]
    print(
        render_table(
            ["policy", "hit ratio", "origin fraction", "origin bytes"],
            rows,
            title=(
                f"What-if TTL sweep over {replayer.trace_length:,} JSON "
                f"requests ({replayer.cacheable_share() * 100:.0f}% to "
                "cacheable objects)"
            ),
        )
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "characterize": _cmd_characterize,
    "patterns": _cmd_patterns,
    "periodicity": _cmd_periodicity,
    "ngram": _cmd_ngram,
    "trend": _cmd_trend,
    "stream": _cmd_stream,
    "paper": _cmd_paper,
    "validate": _cmd_validate,
    "replay": _cmd_replay,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sources = [
        flag
        for flag, dest in (("--logs", "logs"), ("--logs-dir", "logs_dir"),
                           ("--follow", "follow"), ("--stdin", "stdin"))
        if getattr(args, dest, None)
    ]
    if len(sources) > 1:
        parser.error(f"{' and '.join(sources)} are mutually exclusive")
    if getattr(args, "logs", None) and not Path(args.logs).exists():
        parser.error(f"--logs: no such file: {args.logs}")
    logs_dir = getattr(args, "logs_dir", None)
    if logs_dir:
        if not Path(logs_dir).is_dir():
            parser.error(f"--logs-dir: no such directory: {logs_dir}")
        from .logs.partition import check_layout

        try:
            check_layout(logs_dir)
        except ValueError as error:
            parser.error(f"--logs-dir: {error}")
    try:
        return _run_command(args)
    except _run_failures() as error:
        print(f"{parser.prog} {args.command}: error: {error}", file=sys.stderr)
        return 1


def _run_failures() -> tuple:
    """Exceptions that end a run with an error message and exit status
    1 instead of a traceback: failed shards, a failed stream source
    and a failed log read.  Evaluated only when a run raises, so a run
    that succeeds never imports them."""
    from .engine.executor import EngineError
    from .stream.ingest import IngestError

    return (EngineError, IngestError, _ReadFailed)


def _run_command(args: argparse.Namespace) -> int:
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    if not (metrics_path or trace_path):
        return _COMMANDS[args.command](args)
    # Observability requested: run the command under an ambient
    # registry and export whatever it recorded — in a finally block,
    # so a failed run still leaves its metrics behind for diagnosis.
    from .obs import MetricsRegistry, installed, write_metrics, write_spans_jsonl

    registry = MetricsRegistry()
    try:
        with installed(registry):
            return _COMMANDS[args.command](args)
    finally:
        if metrics_path:
            write_metrics(registry, metrics_path)
        if trace_path:
            write_spans_jsonl(registry, trace_path)


if __name__ == "__main__":
    sys.exit(main())
