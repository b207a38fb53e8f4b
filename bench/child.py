"""One workload repeat in a fresh interpreter.

Usage: python3 child.py MODE WORKLOAD INPUTS_JSON RESULT_PATH WORKDIR

MODE is ``import`` (time the package import only), ``run`` (untraced
workload) or ``trace`` (workload under the span recorder). The result is
written as JSON to RESULT_PATH. Nothing heavy is imported before the timed
import of ``coulombchain.cli``, so setup_s sees every import the command
line pays.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import ctypes
    import glob
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fname in ("scipy_openblas_get_num_threads64_",
                      "scipy_openblas_get_num_threads",
                      "openblas_get_num_threads64_",
                      "openblas_get_num_threads"):
            fn = getattr(lib, fname, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    """Versions, CPU and the BLAS thread count in effect in this process."""
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "blas_threads": _blas_threads()}


def main(argv: list) -> int:
    mode, name, inputs_json, result_path, workdir = argv
    t0 = time.perf_counter()
    import coulombchain.cli  # noqa: F401  (timed: this is setup_s)
    result = {"setup_s": time.perf_counter() - t0}
    if mode != "import":
        import spans
        import workloads
        inputs = json.loads(inputs_json)
        body = workloads.BODIES[name]
        rec = None
        if mode == "trace":
            rec = spans.Recorder()
            spans.install(rec)
        c0, w0 = _cpu_s(), time.perf_counter()
        if rec is None:
            out = body(inputs, workdir)
        else:
            with rec.span("workload"):
                out = body(inputs, workdir)
            rec.unpatch_all()
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = _cpu_s() - c0
        result["checks"] = [[n, bool(ok), detail] for n, ok, detail in
                            workloads.CHECKS[name](inputs, out)]
        if rec is not None:
            result["layers"] = spans.layer_metrics(rec)
            result["spans"] = rec.dump()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["env"] = fingerprint()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
