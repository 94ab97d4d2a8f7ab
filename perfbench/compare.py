"""Compare two result records written by ``run.py --out``.

    python3 perfbench/run.py --compare base.json new.json

Prints one row per metric (end-to-end and per-layer alike): its unit,
the base value, the new value, and the change as a share of the base.
An end-to-end metric that ``BENCHMARK.json`` bounds is marked
``REGRESSED`` when it moved the wrong way by more than its bound, and
any such row makes the exit status 1.  One record per side is one run:
for a claim, compare medians over many seeds (see the README).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from metrics import UNITS
from procs import ROOT


def load_bounds() -> Dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {metric["name"]: metric for metric in spec.get("end_to_end", [])}


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("workload", "seed", "trace", "params"):
        if base["context"].get(key) != new["context"].get(key):
            print(f"note: {key} differs: {base['context'].get(key)!r} "
                  f"vs {new['context'].get(key)!r}")
    bounds = load_bounds()
    regressed = 0
    print(f"{'metric':28s} {'unit':6s} {'base':>12s} {'new':>12s} "
          f"{'change':>9s}")
    for name in sorted(set(base["metrics"]) | set(new["metrics"])):
        old_value = base["metrics"].get(name)
        new_value = new["metrics"].get(name)
        if old_value is None or new_value is None:
            print(f"{name:28s} {UNITS.get(name, ''):6s} {old_value!s:>12s} "
                  f"{new_value!s:>12s} {'-':>9s}")
            continue
        change = (new_value - old_value) / old_value if old_value else 0.0
        flag = ""
        bound = bounds.get(name)
        if bound is not None:
            worse = change if bound["better"] == "lower" else -change
            if worse > bound["bound"]:
                flag = f"  REGRESSED (bound {bound['bound']:.0%})"
                regressed += 1
        print(f"{name:28s} {UNITS.get(name, ''):6s} {old_value:12.6g} "
              f"{new_value:12.6g} {change:+9.1%}{flag}")
    for side, record in (("base", base), ("new", new)):
        print(f"{side}: {record['context'].get('commit')} correct="
              f"{record['correct']} failed {record['failed']} of "
              f"{record['attempted']}")
    return 1 if regressed else 0
