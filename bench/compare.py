"""Compare two benchmark result files written by ``run.py --all --out``.

Usage: python3 bench/compare.py BEFORE.json AFTER.json

Prints both environments, then every end-to-end metric per workload, then
every per-layer metric per workload, each with its unit, both values and
the relative change. A change is printed only where the before value is
non-zero.
"""

import json
import sys


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _change(a: float, b: float) -> str:
    return f"{(b - a) / a:+.1%}" if a else ""


def report(before: dict, after: dict) -> list:
    lines = []
    for tag, res in (("before", before), ("after", after)):
        env = ", ".join(f"{k} {v}" for k, v in res["env"].items())
        lines.append(f"{tag}: seed {res['seed']}, {res['seconds']} s per run; "
                     f"{env}")
    workloads = [w for w in before["workloads"] if w in after["workloads"]]
    for key, title in (("end_to_end", "end-to-end"), ("per_layer", "per-layer")):
        lines.append("")
        lines.append(f"{title:42s} {'workload':12s} {'before':>14s} "
                     f"{'after':>14s} {'change':>8s}")
        for w in workloads:
            a, b = (r["workloads"][w][key] for r in (before, after))
            for name, m in a["metrics"].items():
                if name not in b["metrics"]:
                    continue
                va, vb = m["value"], b["metrics"][name]["value"]
                label = f"{name} [{m['unit']}]"
                lines.append(f"{label:42s} {w:12s} {va:>14.6g} {vb:>14.6g} "
                             f"{_change(va, vb):>8s}")
            lines.append(f"{'failed checks':42s} {w:12s} "
                         f"{a['failed']:>8d}/{a['attempted']:<5d} "
                         f"{b['failed']:>8d}/{b['attempted']:<5d}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report(_load(argv[0]), _load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
