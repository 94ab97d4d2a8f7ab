"""A fixed reference job that gauges the host's current speed.

    python3 perfbench/reference.py

It imports numpy and runs a fixed mix of the work the CLI jobs do —
string formatting, dict counting, JSON encoding and decoding, sorting
and a little numpy — without importing ``repro``, so no change to the
program can change its cost.  ``run.py`` times it as a fresh process
beside every timed job: a slow phase of a shared host stretches both
alike, and the ratio of the two cancels it.
"""

from __future__ import annotations

import json

import numpy

ROWS = 40_000


def work(rows: int) -> int:
    counts = {}
    lines = []
    for i in range(rows):
        url = f"/api/v{i % 7}/item/{(i * 2654435761) % 10007}.json"
        counts[url] = counts.get(url, 0) + 1
        lines.append(json.dumps({"url": url, "bytes": i % 1500,
                                 "json": i % 3 == 0}))
    parsed = [json.loads(line) for line in lines]
    parsed.sort(key=lambda row: (row["url"], row["bytes"]))
    sizes = numpy.fromiter((row["bytes"] for row in parsed), dtype=float)
    return len(counts) + int(numpy.percentile(sizes, 95))


if __name__ == "__main__":
    print(work(ROWS))
