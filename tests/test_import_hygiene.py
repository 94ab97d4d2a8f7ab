"""Import discipline: a command loads only the layers it runs.

Every CLI call is a fresh process, so whatever ``import repro.cli``
and a command's handler pull in is paid on every run.  These tests
run fresh interpreters and read their ``sys.modules``:

* ``import repro.cli`` loads no analysis layer and no numpy;
* ``characterize --logs-dir`` (the §4 path, serial and sharded)
  loads neither numpy nor the traffic generator nor the fault plan
  nor the checkpoint store, and the serial run loads no pool
  machinery (``concurrent.futures``, ``multiprocessing``);
* ``stream --logs-dir`` loads neither the generator nor the CDN
  simulator nor anomaly detection, and a stream whose windows hold no
  flow past both §5.1 filters loads neither numpy nor the period
  detector nor the fault plan, and one without ``--checkpoint-dir``
  not the checkpoint store;
* each command loads at most its budget of ``repro`` modules.

The lazy package ``__init__``s must still expose every public name
exactly as eager imports did.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.logs.io import write_logs
from tests.conftest import make_log

SRC = Path(repro.__file__).resolve().parent.parent

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.anomaly",
    "repro.cdn",
    "repro.core",
    "repro.engine",
    "repro.faults",
    "repro.logs",
    "repro.ngram",
    "repro.periodicity",
    "repro.stream",
    "repro.synth",
    "repro.useragent",
]

_REPORT = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(body: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``body``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _REPORT.format(body=body)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def run_cli(argv) -> set:
    return loaded_modules(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def loaded_packages(modules: set, names) -> list:
    return sorted(
        name
        for name in names
        if any(m == name or m.startswith(name + ".") for m in modules)
    )


@pytest.fixture(scope="module")
def logs_dir(tmp_path_factory):
    from repro.logs.partition import write_partitioned
    from repro.synth.workload import WorkloadBuilder, short_term_config

    root = tmp_path_factory.mktemp("parts")
    dataset = WorkloadBuilder(short_term_config(400, seed=3)).build()
    write_partitioned(dataset.logs, root)
    return str(root)


class TestFreshProcessImports:
    def test_cli_module_imports_no_analysis_layer(self):
        modules = loaded_modules("import repro.cli")
        heavy = [
            "numpy",
            "repro.synth",
            "repro.stream",
            "repro.ngram",
            "repro.periodicity",
            "repro.engine.executor",
        ]
        assert loaded_packages(modules, heavy) == []

    def test_help_imports_no_analysis_layer(self):
        modules = loaded_modules(
            "from repro.cli import build_parser\n"
            "build_parser().format_help()\n"
        )
        assert sorted(m for m in modules if m.startswith("repro")) == [
            "repro", "repro._lazy", "repro.cli",
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_characterize_skips_numpy_and_synth(self, logs_dir, workers):
        modules = run_cli(
            ["characterize", "--logs-dir", logs_dir,
             "--workers", str(workers)]
        )
        assert "repro.analysis.characterize" in modules
        assert loaded_packages(
            modules,
            ["numpy", "repro.synth", "repro.ngram", "repro.periodicity"],
        ) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_characterize_skips_the_fault_plan_and_checkpoints(
        self, logs_dir, workers
    ):
        # The executor names the plan only for type checkers and loads
        # the fault types only to raise one; a run without
        # --checkpoint-dir opens no store.
        modules = run_cli(
            ["characterize", "--logs-dir", logs_dir,
             "--workers", str(workers)]
        )
        assert "repro.engine.executor" in modules
        assert loaded_packages(
            modules, ["repro.faults.plan", "repro.engine.checkpoint"]
        ) == []

    def test_serial_characterize_skips_the_process_pool(self, logs_dir):
        # A serial run is the engine on its serial backend, which
        # imports neither multiprocessing nor any pool.
        modules = run_cli(["characterize", "--logs-dir", logs_dir])
        assert "repro.engine.executor" in modules
        assert loaded_packages(
            modules, ["multiprocessing", "concurrent.futures"]
        ) == []

    def test_stream_without_flows_skips_numpy_and_the_detector(
        self, logs_dir
    ):
        modules = run_cli(
            ["stream", "--logs-dir", logs_dir, "--window", "120",
             "--permutations", "5"]
        )
        assert "repro.engine.flowstate" in modules
        assert loaded_packages(
            modules,
            ["numpy", "repro.periodicity.detector",
             "repro.periodicity.results", "repro.faults.plan",
             "repro.engine.checkpoint"],
        ) == []

    def test_stream_loads_the_checkpoint_store_only_when_asked(
        self, logs_dir, tmp_path
    ):
        modules = run_cli(
            ["stream", "--logs-dir", logs_dir, "--window", "120",
             "--permutations", "5", "--checkpoint-dir", str(tmp_path)]
        )
        assert "repro.engine.checkpoint" in modules

    def test_stream_loads_the_detector_for_a_periodic_flow(self, tmp_path):
        # Twelve clients poll one object every 30 s: one window holds
        # a flow past both filters, and detection must still run.
        records = [
            make_log(
                url="/api/poll",
                client_ip_hash=f"{client:016x}",
                timestamp=1_559_347_200.0 + 3.0 * client + 30.0 * poll,
            )
            for poll in range(40)
            for client in range(12)
        ]
        logs, emit = tmp_path / "poll.jsonl", tmp_path / "emit.jsonl"
        write_logs(records, logs)
        modules = loaded_modules(
            "import contextlib, io, json\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['stream', '--logs', {str(logs)!r},\n"
            "                 '--window', '1800', '--permutations', '5',\n"
            f"                 '--emit', {str(emit)!r}]) == 0\n"
        )
        assert {"numpy", "repro.periodicity.detector"} <= modules
        windows = [json.loads(line) for line in emit.read_text().splitlines()]
        assert [window["detected_periods"] for window in windows] == [[30.0]]

    @pytest.mark.parametrize("argv,budget", [
        (["characterize", "--logs-dir", "{logs}"], 38),
        (["characterize", "--logs-dir", "{logs}", "--workers", "2"], 38),
        (["periodicity", "--logs-dir", "{logs}", "--permutations", "5"], 33),
        (["ngram", "--logs-dir", "{logs}"], 31),
        (["patterns", "--logs-dir", "{logs}", "--permutations", "5"], 39),
        (["stream", "--logs-dir", "{logs}", "--window", "120",
          "--permutations", "5"], 53),
    ], ids=["characterize", "characterize-x2", "periodicity", "ngram",
            "patterns", "stream"])
    def test_repro_module_budget(self, logs_dir, argv, budget):
        # Each module a command loads is compiled or read from bytecode
        # on every run; a new import on a command's path must be a
        # decision.
        modules = run_cli([arg.format(logs=logs_dir) for arg in argv])
        loaded = sorted(m for m in modules if m.startswith("repro"))
        assert len(loaded) <= budget, loaded

    def test_stream_skips_synth_cdn_and_anomaly(self, logs_dir):
        modules = run_cli(
            ["stream", "--logs-dir", logs_dir, "--window", "120",
             "--permutations", "5"]
        )
        assert "repro.stream.service" in modules
        assert loaded_packages(
            modules, ["repro.synth", "repro.cdn", "repro.anomaly"]
        ) == []

    def test_reexport_outranks_a_same_named_submodule(self):
        # Importing the submodule first must not turn the package's
        # ``characterize`` re-export into the module object.
        loaded_modules(
            "import types\n"
            "import repro.analysis.characterize\n"
            "import repro.analysis.sessionize\n"
            "from repro.analysis import characterize, sessionize\n"
            "assert not isinstance(characterize, types.ModuleType)\n"
            "assert not isinstance(sessionize, types.ModuleType)\n"
        )


class TestPublicNames:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_public_name_resolves(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listed, name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        missing = [name for name in module.__all__ if name not in namespace]
        assert missing == []
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_is_an_attribute_error(self):
        analysis = importlib.import_module("repro.analysis")
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            analysis.nope  # noqa: B018
        assert not hasattr(repro, "nope")

    def test_submodules_resolve_through_the_parent(self):
        from repro import obs

        assert obs.MetricsRegistry is not None
        assert repro.logs.io.read_logs is repro.logs.read_logs
        loaded_modules(
            "import repro\n"
            "assert repro.core.stats.percentile([1, 3], 50) == 2.0\n"
        )

    def test_detector_config_is_one_class(self):
        # Configs pickled before the class moved name the detector
        # module; they must load as the same class.
        from repro.periodicity import DetectorConfig
        from repro.periodicity.config import DetectorConfig as home
        from repro.periodicity.detector import DetectorConfig as reexport

        assert DetectorConfig is home is reexport

    def test_pickles_by_qualified_name(self):
        loaded_modules(
            "import pickle\n"
            "import repro.analysis, repro.engine\n"
            "state = repro.engine.CharacterizationState()\n"
            "assert type(pickle.loads(pickle.dumps(state))) is type(state)\n"
            "for obj in (repro.analysis.characterize,\n"
            "            repro.analysis.analyze_periodicity):\n"
            "    assert pickle.loads(pickle.dumps(obj)) is obj\n"
        )
