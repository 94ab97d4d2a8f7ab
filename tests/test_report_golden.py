"""Golden bytes of what the analysis commands print and emit.

The differential suites compare values; these digests pin the bytes a
user reads: the §4 report of ``characterize --logs-dir`` (serial and
sharded, which must print the same bytes), the ``stream --logs-dir``
summary table and its ``--emit`` JSONL lines, on the partitioned
datasets :mod:`tests.test_synth_golden` pins.  Counter, dict and set
orders all reach the rendering, so a change to how the states fold
records that reorders anything fails here.  When an output change is
intended, recompute them (``PYTHONPATH=src python
tests/test_report_golden.py`` prints the current values) and say in
CHANGES.md why they moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.logs.partition import write_partitioned
from repro.synth.workload import WorkloadBuilder
from tests.test_synth_golden import CONFIGS

#: SHA-256 per dataset of ``characterize --logs-dir`` stdout, at
#: ``--workers 1`` and ``--workers 2`` alike.
CHARACTERIZE_SHA256 = {
    "short": "a5a39c06bc8cc7920312754c1b96d47152b81620ad9cebd874d0a8a79af1e3e3",
    "long": "366df72cd94882517c62194f40fc2980224df0cc8b5ab903e7b87d961a4df6a1",
}

#: SHA-256 per dataset of ``stream --logs-dir`` stdout.
STREAM_SHA256 = {
    "short": "ee9c0ccb48a827dfc8f2d188d776ac06875366aa2fe43e32db122f0119c7e72b",
    "long": "73ee1f1f16034954de231b81e3ec9d702f2125173c73de621f4a3c705f8bc252",
}

#: SHA-256 per dataset of the ``stream --logs-dir`` ``--emit`` file.
EMIT_SHA256 = {
    "short": "719d9983fe26264a0842352b4d849e7c4855275b8c79f2a2b548518f848d9e9e",
    "long": "d2ef9382f9e40aae253c90299bc73fa4714b51d97ab946793b31afd3d7abb4e5",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(argv) -> bytes:
    """What ``repro-json-cdn ARGV`` prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


def outputs(logs_dir: Path, emit: Path) -> dict:
    """Each pinned output's digest; the characterize report per worker
    count under ``characterize-x<N>``."""
    digests = {
        f"characterize-x{workers}": sha256(stdout_of(
            ["characterize", "--logs-dir", str(logs_dir),
             "--workers", str(workers)]
        ))
        for workers in (1, 2)
    }
    digests["stream"] = sha256(stdout_of(
        ["stream", "--logs-dir", str(logs_dir), "--emit", str(emit)]
    ))
    digests["emit"] = sha256(emit.read_bytes())
    return digests


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def dataset(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"report-{request.param}")
    write_partitioned(
        WorkloadBuilder(CONFIGS[request.param]()).build().logs, root / "parts"
    )
    return request.param, root


def test_report_bytes_are_pinned(dataset):
    name, root = dataset
    assert outputs(root / "parts", root / "emit.jsonl") == {
        "characterize-x1": CHARACTERIZE_SHA256[name],
        "characterize-x2": CHARACTERIZE_SHA256[name],
        "stream": STREAM_SHA256[name],
        "emit": EMIT_SHA256[name],
    }


if __name__ == "__main__":
    import tempfile

    for name, make_config in sorted(CONFIGS.items()):
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            write_partitioned(
                WorkloadBuilder(make_config()).build().logs, root / "parts"
            )
            for output, digest in outputs(
                root / "parts", root / "emit.jsonl"
            ).items():
                print(f"{name}: {output} {digest}")
