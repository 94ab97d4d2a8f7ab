"""Open-loop live generator: one process, no threads.

    python3 perfbench/livegen.py SCHEDULE.json LIVE.jsonl T0 LATENESS.json

Writes line ``i`` of ``LIVE.jsonl`` to standard output at monotonic
time ``T0 + due[i]`` (``due`` from ``SCHEDULE.json``) and records, per
line, how late its last byte entered the pipe.  Standard output is
non-blocking and backed by an unbounded in-process buffer, so a slow
reader delays delivery (and shows up as lateness) but never holds the
schedule back: every line is queued at its due time regardless.
``time.monotonic`` is system-wide, so the benchmark process compares
these due times with its own snapshot arrival times.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time


def main(argv) -> int:
    schedule_path, lines_path, t0_text, lateness_path = argv
    t0 = float(t0_text)
    due = json.loads(open(schedule_path).read())["due"]
    with open(lines_path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    if len(lines) != len(due):
        print(f"livegen: {len(lines)} lines but {len(due)} due times",
              file=sys.stderr)
        return 2

    fd = sys.stdout.fileno()
    os.set_blocking(fd, False)
    total = len(lines)
    pending = bytearray()
    line_end = []        # stream offset one past each queued line
    queued = written = 0
    lateness = [0.0] * total
    settled = 0          # lines whose lateness is final
    index = 0
    try:
        while index < total or pending:
            now = time.monotonic()
            while index < total and t0 + due[index] <= now:
                pending += lines[index]
                queued += len(lines[index])
                line_end.append(queued)
                index += 1
            if pending:
                try:
                    sent = os.write(fd, pending)
                except BlockingIOError:
                    sent = 0
                del pending[:sent]
                written += sent
                stamp = time.monotonic()
                while settled < index and line_end[settled] <= written:
                    lateness[settled] = stamp - (t0 + due[settled])
                    settled += 1
            wait = t0 + due[index] - time.monotonic() if index < total else None
            if pending:
                select.select([], [fd], [], None if wait is None else max(0.0, wait))
            elif wait is not None and wait > 0:
                time.sleep(wait)
    except BrokenPipeError:
        print("livegen: reader closed the pipe early", file=sys.stderr)
        return 1
    finally:
        with open(lateness_path, "w") as handle:
            json.dump(lateness[:settled], handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
