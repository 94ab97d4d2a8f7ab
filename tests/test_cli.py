"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "long", "--requests", "123",
             "--out", "x.jsonl"]
        )
        assert args.command == "generate"
        assert args.dataset == "long"
        assert args.requests == 123

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_dataset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--dataset", "medium"])

    @pytest.mark.parametrize(
        "command", ["characterize", "patterns", "periodicity", "ngram",
                    "paper"]
    )
    def test_engine_args_on_analysis_commands(self, command):
        args = build_parser().parse_args(
            [command, "--workers", "3", "--logs-dir", "parts/"]
        )
        assert args.workers == 3
        assert args.logs_dir == "parts/"

    def test_replay_takes_input_and_telemetry_flags(self):
        args = build_parser().parse_args(
            ["replay", "--logs-dir", "parts/", "--lenient",
             "--metrics", "m.json", "--trace", "t.jsonl"]
        )
        assert args.logs_dir == "parts/"
        assert args.lenient is True
        assert (args.metrics, args.trace) == ("m.json", "t.jsonl")

    @pytest.mark.parametrize(
        "flag", [["--workers", "7"], ["--retries", "3"],
                 ["--shard-timeout", "5"]],
    )
    def test_replay_rejects_engine_flags(self, capsys, flag):
        # replay runs no engine stage, so these flags would be ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--requests", "200", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command", ["characterize", "patterns", "periodicity", "ngram"]
    )
    def test_checkpoint_dir_on_engine_commands(self, command):
        args = build_parser().parse_args([command, "--checkpoint-dir", "ckpt/"])
        assert args.checkpoint_dir == "ckpt/"

    def test_periodicity_permutations_arg(self):
        args = build_parser().parse_args(["periodicity", "--permutations", "25"])
        assert args.permutations == 25

    def test_ngram_order_arg(self):
        args = build_parser().parse_args(["ngram", "--order", "2"])
        assert args.order == 2

    def test_workers_default_serial(self):
        args = build_parser().parse_args(["characterize"])
        assert args.workers == 1
        assert args.logs_dir is None

    def test_characterize_checkpoint_dir(self):
        args = build_parser().parse_args(
            ["characterize", "--checkpoint-dir", "ckpt/"]
        )
        assert args.checkpoint_dir == "ckpt/"

    def test_generate_has_no_engine_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--out", "x.jsonl", "--workers", "2"]
            )

    def test_zero_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--requests", "100", "--workers", "0"])

    def test_logs_and_logs_dir_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--logs", "a.jsonl", "--logs-dir", "b/"])

    def test_option_prefixes_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", "--requests", "100", "--worker", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --worker" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, expected",
        [("--logs", "no such file"), ("--logs-dir", "no such directory")],
    )
    def test_missing_input_is_a_usage_error(self, tmp_path, capsys, flag,
                                            expected):
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", flag, str(tmp_path / "missing")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"repro-json-cdn: error: {flag}: {expected}"
        )

    @pytest.fixture
    def partition_parent(self, tmp_path):
        """A directory whose ``logs/`` child is a partition root."""
        from repro.logs.partition import write_partitioned
        from tests.conftest import make_log

        write_partitioned([make_log()], tmp_path / "data" / "logs")
        return tmp_path / "data"

    @pytest.mark.parametrize("command", ["characterize", "patterns", "stream"])
    @pytest.mark.parametrize("layout", ["empty", "parent"])
    def test_logs_dir_without_partition_layout_is_a_usage_error(
        self, tmp_path, capsys, partition_parent, command, layout
    ):
        if layout == "empty":
            root = tmp_path / "empty"
            root.mkdir()
            expected = "holds no partition files"
        else:
            root = partition_parent
            expected = "is not a partitioned log directory: logs/edge-1"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--logs-dir", str(root)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith(f"repro-json-cdn: error: --logs-dir: {root} ")
        assert expected in last

    @pytest.mark.parametrize(
        "sources",
        [["--logs-dir", "D", "--stdin"], ["--follow", "F", "--stdin"],
         ["--logs", "L", "--follow", "F"]],
    )
    def test_stream_sources_mutually_exclusive(self, capsys, sources):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", *sources])
        assert excinfo.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["characterize", "patterns", "periodicity", "ngram"]
    )
    def test_hardening_flags_parse(self, command):
        args = build_parser().parse_args(
            [command, "--shard-timeout", "30", "--retries", "2", "--lenient"]
        )
        assert args.shard_timeout == 30.0
        assert args.retries == 2
        assert args.lenient is True

    def test_hardening_flags_default_off(self):
        args = build_parser().parse_args(["characterize"])
        assert args.shard_timeout is None
        assert args.retries == 0
        assert args.lenient is False

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--requests", "100", "--retries", "-1"])

    @pytest.mark.parametrize(
        "argv, flag, bound",
        [
            (["stream", "--window", "0"], "--window", "> 0"),
            (["stream", "--window", "-5"], "--window", "> 0"),
            (["stream", "--slide", "0"], "--slide", "> 0"),
            (["stream", "--watermark", "-1"], "--watermark", ">= 0"),
            (["stream", "--top-k", "0"], "--top-k", ">= 1"),
            (["stream", "--queue-size", "0"], "--queue-size", ">= 1"),
            (["stream", "--ingest-workers", "0"], "--ingest-workers", ">= 1"),
            (["ngram", "--order", "0"], "--order", ">= 1"),
            (["periodicity", "--permutations", "-1"], "--permutations",
             ">= 2"),
            (["patterns", "--permutations", "0"], "--permutations", ">= 2"),
            (["stream", "--permutations", "1"], "--permutations", ">= 2"),
            (["stream", "--window", "inf"], "--window", "finite"),
            (["stream", "--slide", "inf"], "--slide", "finite"),
            (["characterize", "--shard-timeout", "inf"], "--shard-timeout",
             "finite"),
            (["characterize", "--requests", "-5"], "--requests", ">= 1"),
            (["replay", "--edges", "0"], "--edges", ">= 1"),
        ],
    )
    def test_numeric_argument_out_of_range(self, capsys, argv, flag, bound):
        # --requests keeps a run that wrongly starts from taking long.
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--requests", "200"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith(f"repro-json-cdn {argv[0]}: error: ")
        assert f"error: argument {flag}: must be {bound}, got " in last

    def test_slide_wider_than_window_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--requests", "200", "--window", "60",
                  "--slide", "120"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "repro-json-cdn: error: argument --slide: must be <= --window "
            "(60), got 120"
        )

    def test_logs_with_an_unknown_suffix_is_a_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "x.txt"
        path.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", "--logs", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("repro-json-cdn: error: --logs: ")
        assert "cannot infer log format" in last

    @pytest.mark.parametrize("argv, flag, message", [
        (["generate", "--requests", "100", "--out", "{dir}/o.txt"], "--out",
         "cannot infer log format"),
        (["stream", "--follow", "{dir}/f.txt"], "--follow",
         "cannot infer log format"),
        (["stream", "--follow", "{dir}/f.jsonl.gz"], "--follow",
         "cannot tail a gzip file"),
    ])
    def test_unusable_file_name_is_a_usage_error(
        self, tmp_path, capsys, argv, flag, message
    ):
        # Rejected before any work: generate builds no dataset and
        # --follow polls nothing.
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(dir=tmp_path) for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert lines[-1].startswith(f"repro-json-cdn: error: {flag}: ")
        assert message in lines[-1]
        assert list(tmp_path.iterdir()) == []

    def test_unparsable_number_names_the_type(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--window", "soon"])
        assert excinfo.value.code == 2
        assert "argument --window: invalid float value: 'soon'" in (
            capsys.readouterr().err
        )

    def test_nonpositive_shard_timeout_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--requests", "100", "--shard-timeout", "0"])


class TestCommands:
    def test_trend(self, capsys):
        assert main(["trend"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "growth over window" in out

    def test_generate_and_characterize(self, tmp_path, capsys):
        out_file = tmp_path / "logs.jsonl.gz"
        assert main(
            ["generate", "--requests", "2000", "--seed", "3",
             "--out", str(out_file)]
        ) == 0
        assert out_file.exists()
        capsys.readouterr()
        assert main(["characterize", "--logs", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Table 2" in out

    def test_characterize_generates_when_no_logs(self, capsys):
        assert main(
            ["characterize", "--requests", "2000", "--seed", "1"]
        ) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_lenient_skips_malformed_lines(self, tmp_path, capsys):
        out_file = tmp_path / "logs.jsonl"
        assert main(
            ["generate", "--requests", "1000", "--seed", "3",
             "--out", str(out_file)]
        ) == 0
        with open(out_file, "a", encoding="utf-8") as handle:
            handle.write('{"torn mid-write\n')
        capsys.readouterr()
        # Strict (default) ingest refuses the damaged file with an
        # error message, not a traceback...
        assert main(["characterize", "--logs", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(
            f"repro-json-cdn characterize: error: ValueError: {out_file}: "
            "malformed JSONL record on line "
        )
        # ...lenient skips the bad line and analyzes the rest.
        assert main(
            ["characterize", "--logs", str(out_file), "--lenient"]
        ) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_validate_command(self, capsys):
        assert main(["validate", "--requests", "6000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "calibration checks passed" in out
        assert "device share: mobile" in out

    def test_patterns_command_small(self, capsys):
        assert main(
            ["patterns", "--dataset", "long", "--requests", "3000",
             "--seed", "2", "--permutations", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "§5.1" in out
        assert "Table 3" in out

    def test_replay_command(self, capsys):
        assert main(
            ["replay", "--dataset", "long", "--requests", "2500",
             "--seed", "4", "--ttls", "60,600", "--edges", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "What-if TTL sweep" in out
        assert "ttl=60s" in out and "ttl=600s" in out

    def test_characterize_with_workers(self, capsys):
        assert main(
            ["characterize", "--requests", "2000", "--seed", "1",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Table 2" in out

    def test_characterize_from_logs_dir(self, tmp_path, capsys):
        from repro.logs.partition import write_partitioned
        from repro.synth.workload import WorkloadBuilder, short_term_config

        dataset = WorkloadBuilder(short_term_config(1500, seed=6)).build()
        root = tmp_path / "parts"
        write_partitioned(dataset.logs, root)
        assert main(
            ["characterize", "--logs-dir", str(root), "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_patterns_reads_each_partition_file_once(self, tmp_path, capsys):
        # One record stage folds both §5 tracks, so each file shard is
        # mapped (read and parsed) exactly once, on the process pool.
        import json
        from collections import Counter

        from repro.logs.partition import write_partitioned
        from repro.synth.workload import WorkloadBuilder, long_term_config

        dataset = WorkloadBuilder(long_term_config(1500, seed=2)).build()
        root = tmp_path / "parts"
        write_partitioned(dataset.logs, root)
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["patterns", "--logs-dir", str(root), "--workers", "2",
             "--permutations", "5", "--trace", str(trace)]
        ) == 0
        assert "Table 3" in capsys.readouterr().out
        mapped = Counter(
            span["tags"]["shard"]
            for span in map(json.loads, trace.read_text().splitlines())
            if span["name"] == "engine.map_shard"
        )
        files = sorted(
            path.relative_to(root).as_posix()
            for path in root.rglob("*") if path.is_file()
        )
        assert files
        assert {name: mapped[name] for name in files} == dict.fromkeys(files, 1)

    def test_periodicity_command_small(self, capsys):
        assert main(
            ["periodicity", "--dataset", "long", "--requests", "3000",
             "--seed", "2", "--permutations", "10", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "§5.1 — periodicity" in out
        assert "periodic JSON requests" in out

    def test_periodicity_checkpoint_resume(self, tmp_path, capsys):
        argv = ["periodicity", "--dataset", "long", "--requests", "2500",
                "--seed", "2", "--permutations", "5",
                "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert (tmp_path / "ckpt" / "periodicity-flows").is_dir()
        assert (tmp_path / "ckpt" / "periodicity-detect").is_dir()

    def test_ngram_command_small(self, capsys):
        assert main(
            ["ngram", "--dataset", "long", "--requests", "3000",
             "--seed", "2", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "clustered" in out

    def test_patterns_with_workers_matches_serial(self, capsys):
        argv_tail = ["--dataset", "long", "--requests", "3000",
                     "--seed", "2", "--permutations", "10"]
        assert main(["patterns"] + argv_tail) == 0
        serial_out = capsys.readouterr().out
        assert main(["patterns", "--workers", "2"] + argv_tail) == 0
        assert capsys.readouterr().out == serial_out

    @pytest.fixture
    def corrupt_partition(self, tmp_path):
        """A partition directory whose first ``.gz`` file is not gzip."""
        from repro.logs.partition import write_partitioned
        from repro.synth.workload import WorkloadBuilder, short_term_config

        dataset = WorkloadBuilder(short_term_config(600, seed=6)).build()
        root = tmp_path / "parts"
        write_partitioned(dataset.logs, root)
        damaged = sorted(root.rglob("*.gz"))[0]
        damaged.write_bytes(b"not a gzip member")
        return root, damaged.relative_to(root).as_posix()

    @pytest.mark.parametrize(
        "argv",
        [["characterize"], ["characterize", "--workers", "2"],
         ["patterns", "--permutations", "5"],
         ["stream", "--permutations", "5"]],
        ids=["characterize-1", "characterize-2", "patterns", "stream"],
    )
    def test_failed_run_is_an_error_message(
        self, capsys, corrupt_partition, argv
    ):
        root, damaged = corrupt_partition
        assert main([*argv, "--logs-dir", str(root)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"repro-json-cdn {argv[0]}: error: ")
        assert "BadGzipFile: Not a gzipped file" in err
        if argv[0] != "stream":
            assert f"{damaged}: gzip.BadGzipFile" in err
            return
        assert f"ingest source failed: {damaged}: BadGzipFile" in err
        # A single damaged file fails the one-worker replay the same way.
        assert main([*argv, "--logs", str(root / damaged)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(
            "repro-json-cdn stream: error: ingest source failed: "
            "BadGzipFile: Not a gzipped file"
        )

    @pytest.fixture
    def damaged_lines_partition(self, tmp_path):
        """A partition directory with a torn line and a valid-JSON
        non-record line appended to two of its files."""
        import gzip

        from repro.logs.partition import write_partitioned
        from repro.synth.workload import WorkloadBuilder, short_term_config

        dataset = WorkloadBuilder(short_term_config(600, seed=6)).build()
        root = tmp_path / "parts"
        write_partitioned(dataset.logs, root)
        first, *_, last = sorted(root.rglob("*.gz"))
        for path, line in ((first, '{"timestamp": 1559'), (last, "[1, 2]")):
            with gzip.open(path, "at", encoding="utf-8") as handle:
                handle.write(line + "\n")
        return root, len(dataset.logs)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_lenient_directory_read_counts_its_skips(
        self, tmp_path, capsys, damaged_lines_partition, workers
    ):
        root, records = damaged_lines_partition
        metrics = tmp_path / "m.json"
        assert main(
            ["characterize", "--logs-dir", str(root), "--lenient",
             "--workers", workers, "--metrics", str(metrics)]
        ) == 0
        assert "Figure 3" in capsys.readouterr().out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["io.lines_skipped"] == 2
        assert counters["io.lines_parsed"] == records

    def test_lenient_file_read_skips_a_null_line(self, tmp_path, capsys):
        path = tmp_path / "logs.jsonl"
        assert main(
            ["generate", "--requests", "500", "--seed", "3",
             "--out", str(path)]
        ) == 0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("null\n")
        assert main(["characterize", "--logs", str(path), "--lenient"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_stream_posture_is_one_for_every_ingest_worker_count(
        self, tmp_path, capsys, damaged_lines_partition
    ):
        root, _ = damaged_lines_partition
        emitted = []
        for workers in ("1", "2"):
            out = tmp_path / f"emit-{workers}.jsonl"
            assert main(
                ["stream", "--logs-dir", str(root), "--window", "60",
                 "--permutations", "5", "--ingest-workers", workers,
                 "--emit", str(out)]
            ) == 0
            emitted.append(out.read_text())
        capsys.readouterr()
        assert emitted[0].count("\n") > 1  # several windows sealed
        assert emitted[0] == emitted[1]
