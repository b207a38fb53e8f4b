"""coulombchain benchmark.

One workload (the last line of output is the JSON result):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

All workloads, untraced and traced, with a result file for compare.py:

    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from the root of a checkout. Every repeat runs in a fresh interpreter
with PYTHONPATH=src, because every command-line run pays the imports and
first-call costs, and a fresh process stops a cache carried across
repeats from faking a gain. One process (this one) generates the load,
one child at a time; BLAS threads are pinned in the child's environment
before numpy loads.

With --trace 0 the last line reports the end-to-end metrics:

- wall_s: median wall time of the workload body after imports;
- setup_s: median time to import coulombchain.cli in a fresh process,
  over the workload repeats plus SETUP_ONLY import-only children;
- peak_rss_mb: median peak resident memory of a workload child.

With --trace 1 it reports the per-layer metrics of spans.py, from traced
repeats, plus trace.overhead_s (traced minus untraced body wall time).
Output checks of every repeat feed ``attempted`` and ``failed``; the
failure fraction is printed with its count (it is not a metric, because
it reads 0 on a correct program).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# One BLAS thread: never above nproc, and steadier on a shared machine.
BLAS_THREADS = "1"
SETUP_ONLY = 1          # import-only children per untraced run
RUN_LIMIT_S = 170       # a single-workload run ends (with an error) by then


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError(f"{path} not found: run from a checkout root")
    with open(path) as fh:
        return json.load(fh)


def _child_env(workdir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("COULOMBCHAIN_THREADS", None)
    env["TMPDIR"] = workdir
    return env


class Runner:
    """Starts children one at a time under a private work directory.

    Every child must end by the deadline, `limit_s` after construction.
    """

    def __init__(self, limit_s: float = RUN_LIMIT_S):
        self.deadline = time.monotonic() + limit_s
        if not os.path.isfile(os.path.join(ROOT, "src", "coulombchain",
                                           "__init__.py")):
            raise BenchError("src/coulombchain not found: the benchmark "
                             "needs the package sources in the checkout")
        self.base = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        self.env = _child_env(self.base)
        self.count = 0
        # Byte-compile up front so no repeat pays for writing .pyc files.
        if subprocess.run([sys.executable, "-m", "compileall", "-q",
                           os.path.join(ROOT, "src")],
                          stdout=subprocess.DEVNULL, env=self.env,
                          timeout=self._left()).returncode != 0:
            raise BenchError("src does not byte-compile")
        os.makedirs(self.base, exist_ok=True)

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def child(self, mode: str, name: str, inputs: dict) -> dict:
        self.count += 1
        workdir = os.path.join(self.base, str(self.count))
        os.makedirs(workdir)
        result_path = os.path.join(workdir, "result.json")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), mode, name,
                 json.dumps(inputs), result_path, workdir],
                env=self.env, cwd=workdir, stdout=subprocess.DEVNULL,
                timeout=self._left())
            if proc.returncode != 0 or not os.path.exists(result_path):
                raise BenchError(f"{mode} child for {name} exited with "
                                 f"code {proc.returncode}")
            with open(result_path) as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child for {name} timed out") from exc
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.base))
        except OSError:
            pass   # another run still uses it


def measure(runner: Runner, spec: dict, name: str, seed: int,
            seconds: float, trace: bool) -> dict:
    """Repeat the workload for `seconds` (at least once per mode)."""
    inputs = workloads.make_inputs(name, seed)
    modes = ("run", "trace") if trace else ("run",)
    reps: dict = {m: [] for m in modes}
    t0 = time.monotonic()
    for mode in itertools.cycle(modes):
        reps[mode].append(runner.child(mode, name, inputs))
        if all(reps.values()) and time.monotonic() - t0 >= seconds:
            break
    setup = [r["setup_s"] for r in reps["run"]]
    if not trace:
        setup += [runner.child("import", name, inputs)["setup_s"]
                  for _ in range(SETUP_ONLY)]
    checks = [c for rs in reps.values() for r in rs for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    med = statistics.median
    out = {"workload": name, "seed": seed, "inputs": inputs,
           "env": reps["run"][0]["env"],
           "repeats": {m: len(rs) for m, rs in reps.items()},
           "attempted": len(checks), "failed": len(failed),
           "failed_checks": failed[:20],
           "samples": {"wall_s": [r["wall_s"] for r in reps["run"]],
                       "setup_s": setup,
                       "peak_rss_mb": [r["peak_rss_mb"] for r in reps["run"]]}}
    if not trace:
        out["metrics"] = _with_units(
            {k: med(v) for k, v in out["samples"].items()}, spec["end_to_end"])
        return out
    traced = reps["trace"]
    layers = {k: med([r["layers"][k] for r in traced])
              for k in traced[0]["layers"]}
    traced_wall = med([r["wall_s"] for r in traced])
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - med(out["samples"]["wall_s"])
    layers["process.cpu_s"] = med([r["cpu_s"] for r in traced])
    out["metrics"] = _with_units(layers, spec["per_layer"])
    out["spans"] = traced[-1]["spans"]
    return out


def _with_units(metrics: dict, specs: list) -> dict:
    names = [s["name"] for s in specs]
    if sorted(metrics) != sorted(names):
        raise BenchError(f"metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
            for s in specs}


def _print_report(res: dict) -> None:
    env = res["env"]
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    reps = ", ".join(f"{n} {m}" for m, n in res["repeats"].items())
    print(f"workload {res['workload']} seed {res['seed']}: repeats {reps}")
    for name, m in res["metrics"].items():
        samples = res["samples"].get(name)
        extra = ""
        if samples:
            extra = (f"  (median of {len(samples)}, min {min(samples):.6g}, "
                     f"max {max(samples):.6g})")
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{extra}")
    att, fail = res["attempted"], res["failed"]
    print(f"  {'fail_frac':40s} {fail / att:>14.6g} ({fail} of {att} "
          "output checks failed)")
    for name, _, detail in res["failed_checks"]:
        print(f"    FAILED {name}: {detail}")


def _one(args, spec: dict) -> int:
    runner = Runner()
    try:
        res = measure(runner, spec, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    finally:
        runner.close()
    _print_report(res)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


def _all(args, spec: dict) -> int:
    runner = Runner(limit_s=3600.0)
    results: dict = {"seed": args.seed, "seconds": args.seconds,
                     "workloads": {}}
    try:
        for name in workloads.WORKLOADS:
            entry = {}
            for key, trace in (("end_to_end", False), ("per_layer", True)):
                res = measure(runner, spec, name, args.seed, args.seconds,
                              trace)
                _print_report(res)
                entry[key] = res
            results["env"] = entry["end_to_end"]["env"]
            results["workloads"][name] = entry
    finally:
        runner.close()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, sort_keys=True)
            fh.write("\n")
    ok = all(e[k]["failed"] == 0 for e in results["workloads"].values()
             for k in e)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file written by --all")
    args = ap.parse_args(argv)
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    try:
        spec = _spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return _all(args, spec) if args.all else _one(args, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
