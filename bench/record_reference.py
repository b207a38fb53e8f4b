"""Record the reference summary the `figures` workload checks its CSVs against.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 bench/record_reference.py

Runs ``coulombchain figures --which all`` into a scratch directory under
``.bench_work`` and writes the row count and per-column statistics of each
CSV to ``bench/reference/figures_csv.json``. Re-record only when a change
is meant to alter the figures' numbers, and say so in the change log.
"""

import contextlib
import io
import json
import os
import shutil
import sys

import workloads


def main() -> int:
    root = os.path.dirname(workloads.HERE)
    out = os.path.join(root, ".bench_work", f"reference-{os.getpid()}")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            res = workloads.BODIES["figures"]({"which": "all"}, out)
        if res["rc"] != 0:
            print("figures failed; reference not written", file=sys.stderr)
            return 1
        summary = {f: workloads.summarize_csv(os.path.join(res["out"], f))
                   for f in sorted(os.listdir(res["out"]))
                   if f.endswith(".csv")}
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(out))
    os.makedirs(os.path.dirname(workloads.REFERENCE_PATH), exist_ok=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH} ({len(summary)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
