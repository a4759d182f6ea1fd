"""Compare two directories of benchmark run records.

Usage::

    python3 bench/compare.py A/ B/

``A`` holds the records (``bench/run.py`` writes one per run under
``<out>/runs/``) of the reference commit, ``B`` those of the change,
run with identical settings.  For every workload and metric the table
gives each side's median and quartiles, how often B's run beat the A
run it is paired with (pairs in start order; ties count for neither),
and a verdict:

* ``better`` — B wins at least 9 of 10 pairs and the medians differ by
  more than A's interquartile range;
* ``worse`` — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's interquartile range, as a share of its
  median, is wider than the bound, so "unchanged" cannot be claimed;
* ``within bound`` — otherwise.

Per-layer metrics have no bound: only their medians are listed.  Exits
1 when any verdict is ``worse``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDED = {m["name"]: m for m in SPEC["end_to_end"]}


def load(directory: Path) -> dict:
    """``(workload, metric) -> [value, ...]`` in run start order."""
    records = sorted(
        (json.loads(p.read_text()) for p in directory.glob("*.json")),
        key=lambda r: r["started"],
    )
    out: dict = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            if m["value"] is not None:
                out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """``(verdict, B's pair win rate)`` by the rule in the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_rate = wins / len(pairs)
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if win_rate >= 0.9 and sign * (bm - am) > a3 - a1:
        return "better", win_rate
    scale = abs(am) or 1.0
    if -sign * (bm - am) / scale > bound:
        return "worse", win_rate
    if max(a3 - a1, b3 - b1) / scale > bound:
        return "unresolved", win_rate
    return "within bound", win_rate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="reference records")
    ap.add_argument("b", type=Path, help="records of the change")
    args = ap.parse_args(argv)
    a, b = load(args.a), load(args.b)
    rows = []
    worse = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        av, bv = a[key], b[key]
        a1, am, a3 = quartiles(av)
        b1, bm, b3 = quartiles(bv)
        row = [workload, name, f"{len(av)}/{len(bv)}",
               f"{am:.6g} [{a1:.4g}, {a3:.4g}]",
               f"{bm:.6g} [{b1:.4g}, {b3:.4g}]"]
        spec = BOUNDED.get(name)
        if spec is None:
            row += ["", "", "-"]
        else:
            result, win_rate = verdict(av, bv, spec["better"], spec["bound"])
            worse = worse or result == "worse"
            row += [f"{win_rate:.0%}", f"{spec['bound']:.0%}", result]
        rows.append(row)
    headers = ["workload", "metric", "runs A/B", "A median [q1, q3]",
               "B median [q1, q3]", "B wins", "bound", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [headers])
              for i in range(len(headers))]
    for row in [headers] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
