"""Golden bytes of the synthetic datasets as the log writers store them.

Every table and figure here is computed from generated logs, so a
change to what the generator draws, in what order, or to how a writer
serialises a record must be deliberate.  These digests fail on one
changed byte.  When a change to the synthetic data is intended,
recompute them (``PYTHONPATH=src python tests/test_synth_golden.py``
prints the current values) and say in CHANGES.md why they moved.
"""

from __future__ import annotations

import gzip
import hashlib
from pathlib import Path

import pytest

from repro.logs.io import write_logs
from repro.logs.partition import write_partitioned
from repro.synth.workload import (
    WorkloadBuilder,
    long_term_config,
    short_term_config,
)

#: The pinned datasets.  ``repro-json-cdn generate --requests 2000
#: --seed 1`` (``--dataset short`` by default) writes ``short``.
CONFIGS = {
    "short": lambda: short_term_config(2000, seed=1),
    "long": lambda: long_term_config(2000, seed=2),
}

#: SHA-256 of each dataset as ``write_logs`` stores it in a ``.jsonl``
#: file (the same bytes a ``.jsonl.gz`` file decompresses to).
JSONL_SHA256 = {
    "short": "ba0e2d1991a995fd2d67cb7623c85364c37f5ae301c56724f5e7c696461ec736",
    "long": "ce18d00c14260c45bb8a6cf8b3b67a94f7278bc3ce8c516b59a12f1cc23517de",
}

#: SHA-256 of each dataset's ``write_partitioned`` layout: every file's
#: relative path and decompressed content, in path order.
PARTITION_SHA256 = {
    "short": "ef0aa1afe10a535cb9c1c8eb02ff64d92344cce5e14f718dc0d4813199697246",
    "long": "b64e90ca3e81fecea43ad1a4ad5db0ef4bbb5d78bf20476a94de051ebd947f88",
}


def partition_digest(root: Path) -> str:
    """SHA-256 over ``path NUL content`` of every partition file."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.jsonl.gz")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(gzip.decompress(path.read_bytes()))
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def dataset(request):
    return request.param, WorkloadBuilder(CONFIGS[request.param]()).build()


def test_jsonl_bytes_are_pinned(dataset, tmp_path):
    name, built = dataset
    plain, packed = tmp_path / "logs.jsonl", tmp_path / "logs.jsonl.gz"
    assert write_logs(built.logs, plain) == len(built.logs)
    write_logs(built.logs, packed)
    data = plain.read_bytes()
    assert gzip.decompress(packed.read_bytes()) == data
    assert hashlib.sha256(data).hexdigest() == JSONL_SHA256[name]


def test_partition_bytes_are_pinned(dataset, tmp_path):
    name, built = dataset
    write_partitioned(built.logs, tmp_path)
    assert partition_digest(tmp_path) == PARTITION_SHA256[name]


if __name__ == "__main__":
    import tempfile

    for name, make_config in sorted(CONFIGS.items()):
        logs = WorkloadBuilder(make_config()).build().logs
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            write_logs(logs, root / "logs.jsonl")
            jsonl = hashlib.sha256((root / "logs.jsonl").read_bytes())
            write_partitioned(logs, root / "parts")
            print(f"{name}: jsonl {jsonl.hexdigest()}")
            print(f"{name}: partitions {partition_digest(root / 'parts')}")
