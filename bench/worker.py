"""One workload repetition in a fresh process.

Reads a JSON job on stdin and writes one JSON result line on stdout.
``run.py`` starts one worker per repetition, one at a time, so the program's
process-global caches start cold as they do for a command-line user.  With
``"trace": true`` the worker installs span hooks before the cold pass and
skips the warm pass.
"""

import hashlib
import json
import sys
import time


def reference_s() -> float:
    """Time of a fixed task shaped like the kernel's work, using no gradedsg
    code: Fraction products over dict items, and an accumulator dict that is
    copied on every addition.  ``run.py`` scales measured times by it."""
    from fractions import Fraction
    t0 = time.perf_counter()
    out = {}
    for i in range(1200):
        key = (i % 4, i % 2, (("x", i % 50, i % 3), ("y", i, 0)), i % 9)
        halves = [v * Fraction(1, 2) for v in list(out.values())[:64]]
        out = dict(out)
        out[key] = (out.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 4 + 1)
                    + sum(halves, Fraction(0)))
    return time.perf_counter() - t0


def _pass(fn, op_names):
    try:
        return fn()
    except Exception as exc:  # the verdict for every operation is lost
        import traceback
        traceback.print_exc()
        return "", [(name, f"{type(exc).__name__}: {exc}") for name in op_names]


def main() -> None:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import gradedsg  # noqa: F401  (the timed set-up)
    setup_s = time.perf_counter() - t0
    ref_setup = reference_s()
    result = {"setup_s": setup_s, "ref_setup_s": ref_setup}
    if job["workload"] is None:
        print(json.dumps(result))
        return

    import resource
    from pathlib import Path

    import tracing
    import workloads

    wl = workloads.WORKLOADS[job["workload"]](
        Path(job["root"]), Path(job["scratch"]), job["inputs"])
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        keys_before = tracing.mul_keys_info()

    t0, c0 = time.perf_counter(), time.process_time()
    report, ops = _pass(wl.cold, wl.op_names)
    result["run_s"] = time.perf_counter() - t0
    result["run_cpu_s"] = time.process_time() - c0
    ref_mid = reference_s()
    result["ref_cold_s"] = (ref_setup + ref_mid) / 2

    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            tracing.mul_keys_delta(keys_before, tracing.mul_keys_info()))
        tracer.save(job["spans"])
    else:
        t0 = time.perf_counter()
        _, warm_ops = _pass(wl.warm, wl.op_names)
        result["warm_s"] = time.perf_counter() - t0
        result["ref_warm_s"] = (ref_mid + reference_s()) / 2
        ops = ops + [(f"warm {name}", err) for name, err in warm_ops]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["digest"] = hashlib.sha256(report.encode()).hexdigest()
    result["ops"] = ops
    print(json.dumps(result))


if __name__ == "__main__":
    main()
