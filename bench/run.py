"""gradedsg benchmark: time to verdict, with a traced per-layer breakdown.

    python3 bench/run.py --workload {cli-all,audit-sweep,bracket-suite} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gradedsg is imported from ``src/``.
Each repetition runs in a fresh worker process (``worker.py``), started one
at a time, so the program's process-global caches start cold in every
repetition.  With ``--trace 0`` the run repeats the workload for about
``--seconds`` seconds and reports the median of each end-to-end metric over
the repetitions, times scaled to a fixed machine speed (``REF_NOMINAL_S``).
With ``--trace 1`` it makes one repetition without hooks
and two traced ones, checks that tracing changed no result and that the
deterministic counts repeat exactly, and reports the per-layer metrics.

Every operation's verdict is checked against its known answer.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every verdict was
right and ``golden/`` is unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracing import DETERMINISTIC, LAYER_METRICS  # noqa: E402

WORKLOADS = ("cli-all", "audit-sweep", "bracket-suite")
END_TO_END = {"setup_s": "s", "run_s": "s", "run_cpu_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB"}
MIN_REPS = 3
# Times are scaled to a fixed machine speed: a repetition's time is multiplied
# by REF_NOMINAL_S over the time the same worker took, around that pass, for
# worker.reference_s.  On a shared 2-core VM, co-tenants change the speed by
# up to +-30% within minutes; the scaling cancels much of that drift.
REF_NOMINAL_S = 0.3
SCALED_BY = {"setup_s": "ref_setup_s", "run_s": "ref_cold_s",
             "run_cpu_s": "ref_cold_s", "warm_s": "ref_warm_s"}
SETUP_SAMPLES = 2       # import-only workers per run, besides the repetitions
RUN_LIMIT_S = 170.0     # a run must end well within 180 s

# bracket-suite probes: each term is a component jet of derivative order <= 2,
# half of them times an X jet, times a random rational.  The seed sets the
# content; the size and the number of terms per component are fixed, because
# they set a probe's cost, and run-to-run spread must come from the program,
# not from the inputs.
COMPONENTS = ("X", "psi+", "psi-", "F", "G", "chi+", "chi-", "Y")
PROBE_SIZES = (8, 24)


def _jet_orders(rng: random.Random) -> tuple[int, int]:
    order = rng.randint(0, 2)
    m = rng.randint(0, order)
    return m, order - m


def random_probe(rng: random.Random, size: int) -> list:
    comps = list(COMPONENTS) * (size // len(COMPONENTS))
    rng.shuffle(comps)
    with_x = set(rng.sample(range(size), size // 2))
    terms, seen = [], set()
    for i, comp in enumerate(comps):
        while True:
            m, n = _jet_orders(rng)
            x_jet = _jet_orders(rng) if i in with_x else None
            key = tuple(sorted([(comp, m, n)] + ([("X", *x_jet)] if x_jet else [])))
            if key not in seen:
                break
        seen.add(key)
        num = rng.choice([k for k in range(-9, 10) if k])
        terms.append([comp, m, n, x_jet, num, rng.randint(1, 6)])
    return terms


def make_inputs(workload: str, seed: int) -> dict:
    """Workload inputs from the seed; only bracket-suite's depend on it."""
    if workload != "bracket-suite":
        return {}
    rng = random.Random(seed)
    return {"probes": ["generic"] + [random_probe(rng, s) for s in PROBE_SIZES]}


class Runner:
    def __init__(self, workload: str, inputs: dict, started: float):
        self.workload = workload
        self.inputs = inputs
        self.started = started
        # string hashing sets the order of set iteration in the program, and
        # with it some counts; a fixed seed makes the counts repeat exactly
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")

    def spawn(self, workload, trace=False, spans=None) -> dict:
        job = {"workload": workload, "inputs": self.inputs, "trace": trace,
               "root": str(ROOT), "scratch": str(OUT), "spans": spans}
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise TimeoutError("run time limit reached")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, env=self.env, cwd=ROOT, timeout=left)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["wall"] = wall
        return result

    def setup_samples(self, n: int) -> list[dict]:
        self.spawn(None)  # unmeasured: compiles bytecode and warms the page cache
        return [self.spawn(None) for _ in range(n)]


def golden_state() -> dict:
    g = ROOT / "golden"
    if not g.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(g.iterdir()) if p.is_file()}


def _ops_summary(reps: list[dict]) -> tuple[int, list[str]]:
    ops = [op for r in reps for op in r["ops"]]
    return len(ops), [f"{name}: {err}" for name, err in ops if err is not None]


def scaled(rep: dict, key: str, ref_key: str) -> float:
    return rep[key] * REF_NOMINAL_S / rep[ref_key]


def timed_run(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    setups = runner.setup_samples(SETUP_SAMPLES)
    reps: list[dict] = []
    while True:
        reps.append(runner.spawn(runner.workload))
        elapsed = time.perf_counter() - runner.started
        per_rep = statistics.median(r["wall"] for r in reps)
        # start another repetition if it would end less than half a
        # repetition after the deadline, so runs average about `seconds`
        if len(reps) >= MIN_REPS and elapsed + per_rep / 2 > seconds:
            break
    problems = []
    if len({r["digest"] for r in reps}) != 1:
        problems.append("reports differ between repetitions")
    samples, unscaled = {}, {}
    for name, ref in SCALED_BY.items():
        src = setups + reps if name == "setup_s" else reps
        unscaled[name] = [r[name] for r in src]
        samples[name] = [scaled(r, name, ref) for r in src]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
    print(f"{runner.workload}: {len(reps)} repetitions in fresh workers, "
          f"{len(samples['setup_s'])} imports; times scaled to a reference "
          f"time of {REF_NOMINAL_S} s")
    metrics = {}
    for name, unit in END_TO_END.items():
        vals = samples[name]
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
        raw = (f", unscaled {statistics.median(unscaled[name]):.4f}"
               if name in unscaled else "")
        print(f"  {name:<12} {metrics[name]['value']:10.4f} {unit:<3} "
              f"median of {len(vals)} (min {min(vals):.4f}, max {max(vals):.4f}{raw})")
    return metrics, reps, problems


def traced_run(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    OUT.mkdir(exist_ok=True)
    plain = runner.spawn(runner.workload)
    traced = [runner.spawn(runner.workload, trace=True,
                           spans=str(OUT / f"spans-{runner.workload}-{i}.npz"))
              for i in range(2)]
    problems = []
    if any(t["digest"] != plain["digest"] for t in traced):
        problems.append("traced report digest differs from the untraced one")
    layers = [t["layers"] for t in traced]
    unstable = [k for k in DETERMINISTIC if layers[0][k] != layers[1][k]]
    if unstable:
        problems.append(f"counts differ between traced runs: {', '.join(unstable)}")
    merged = {}
    for name in LAYER_METRICS:
        if name == "trace_overhead":
            merged[name] = (
                statistics.median(scaled(t, "run_s", "ref_cold_s") for t in traced)
                / scaled(plain, "run_s", "ref_cold_s"))
        elif LAYER_METRICS[name] == "count" or layers[0][name] is None:
            merged[name] = layers[0][name]
        else:
            merged[name] = statistics.median(l[name] for l in layers)
    print(f"{runner.workload}: traced cold pass, median of {len(traced)} traced "
          f"workers; spans in {OUT.relative_to(ROOT)}/")
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        value = merged[name]
        metrics[name] = {"value": value, "unit": unit}
        shown = "n/a" if value is None else (
            f"{value:.4f}" if isinstance(value, float) else str(value))
        print(f"  {name:<42} {shown:>14} {unit}")
    return metrics, [plain] + traced, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gradedsg" / "__init__.py").is_file():
        print(f"error: no gradedsg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    golden_before = golden_state()
    runner = Runner(args.workload, make_inputs(args.workload, args.seed), started)
    print(f"seed {args.seed}: inputs {json.dumps(runner.inputs)[:200]}")
    try:
        if args.trace:
            metrics, reps, problems = traced_run(runner)
        else:
            metrics, reps, problems = timed_run(runner, args.seconds)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if golden_state() != golden_before:
        problems.append("golden/ changed during the run")

    attempted, failures = _ops_summary(reps)
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:10.4f} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    for line in failures + problems:
        print(f"  FAILED {line}")
    correct = not failures and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
