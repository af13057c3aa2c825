"""ratnets benchmark: one workload per run, end-to-end or per-layer.

Run from the repository root:

    python3 bench/run.py --workload dim-census --seed 1 --seconds 25 --trace 0

The package is imported from ./src; without it the script exits with code 2
and prints no result.  One process, one client, closed loop: each item
starts when the previous one has been checked.  The timed phase repeats the
workload's fixed pass until --seconds have elapsed (and, untraced, until at
least MIN_ITEMS items have run), so a run always measures whole passes.

Every time is reported at the reference host speed: bench/hostspeed.py
times a fixed reference kernel every 0.2 s (in untraced runs, during items
too), and each item's latency, less the kernel's own time, and each set-up
are divided by the host's slowdown measured around them.  The raw times and
the slowdowns are in the record line.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  The line before it is a record of the environment, the
generated inputs and every failure, by item.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# At least this many untraced items per run, so that ten lie beyond p90.
MIN_ITEMS = 100
# Set-up is repeated this many times and the median reported.
SETUP_REPS = 9
# A traced run spends this share of --seconds on untraced passes, the
# reference for trace.overhead_frac.
UNTRACED_SHARE = 1 / 3

WORKLOADS = ("dim-census", "reconstruct-mix", "pole-train")
# The hostspeed kernel that resembles each workload's inner loop.
REFERENCE = {"dim-census": "dict-poly", "reconstruct-mix": "dict-poly",
             "pole-train": "small-matmul"}

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# bench/import_probe.py times `import ratnets` in a fresh interpreter.  numpy,
# the declared dependency, is loaded there before the clock starts: its
# import (about 150 ms) is work no change to ratnets can move, and on a
# shared host it drifted by a third between hours, swamping the package's own
# import (about 60 ms).  A new dependency that ratnets pulls in is timed.
IMPORT_PROBE = os.path.join("bench", "import_probe.py")


@dataclass
class Timing:
    latencies: list[float] = field(default_factory=list)   # seconds, kernel time taken out
    intervals: list[tuple[float, float]] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)       # at reference speed
    failures: list[dict] = field(default_factory=list)
    pass_call_s: list[float] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.pass_call_s)

    @property
    def call_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_call_s(self) -> float:
        return sum(self.scaled)


def run_passes(plan, seconds: float, min_items: int, speed, tracer=None,
               in_items: bool = True) -> Timing:
    """Repeat whole passes until `seconds` have elapsed and at least
    `min_items` items have run.  Only the item call is timed; its check and
    the host-speed samples are glue.  The host speed is sampled between
    items, and during them too if `in_items`."""
    with speed.inside_items() if in_items else contextlib.nullcontext():
        out = _passes(plan, seconds, min_items, speed, tracer)
    speed.sample()
    out.scaled = [lat / speed.slowdown(t0, t1)
                  for lat, (t0, t1) in zip(out.latencies, out.intervals)]
    return out


def _passes(plan, seconds, min_items, speed, tracer) -> Timing:
    out = Timing()
    t_start = time.perf_counter()
    while True:
        first = len(out.latencies)
        for idx, item in enumerate(plan.items):
            err = None
            speed.maybe_sample()
            if tracer is not None:
                tracer.active = True
            spent = speed.spent
            t0 = time.perf_counter()
            try:
                result = plan.call(item)
            except Exception:
                err = traceback.format_exc()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            out.latencies.append(t1 - t0 - (speed.spent - spent))
            out.intervals.append((t0, t1))
            if err is None:
                try:
                    err = plan.check(item, result)
                except Exception:
                    err = "check raised: " + traceback.format_exc()
            if err is not None:
                out.failures.append({"pass": out.passes, "item": idx,
                                     "label": item.label, "error": err})
        out.pass_call_s.append(sum(out.latencies[first:]))
        if time.perf_counter() - t_start >= seconds and len(out.latencies) >= min_items:
            return out


def import_seconds(root: str, kernel: str) -> tuple[float, float]:
    """Time to import ratnets in a fresh interpreter that has numpy loaded,
    and the host slowdown measured in that interpreter around it."""
    proc = subprocess.run([sys.executable, IMPORT_PROBE, kernel], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    raw, slowdown = json.loads(proc.stdout.strip().splitlines()[-1])
    return raw, slowdown


def set_up(build, root: str, seed: int, tiny: bool, speed):
    """Median over SETUP_REPS of (fresh-interpreter import + input build),
    each at the reference host speed; also the raw samples."""
    raw, scaled = [], []
    plan = None
    for _ in range(SETUP_REPS):
        imp, imp_slowdown = import_seconds(root, speed.kernel)
        speed.sample()
        t0 = time.perf_counter()
        plan = build(seed, tiny)
        t1 = time.perf_counter()
        speed.sample()
        raw.append(imp + t1 - t0)
        scaled.append(imp / imp_slowdown + (t1 - t0) / speed.slowdown(t0, t1))
    return statistics.median(scaled), raw, plan


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: a few items, no item minimum")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ratnets", "__init__.py")):
        print("bench: ./src/ratnets not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy
    import ratnets
    if not os.path.abspath(ratnets.__file__).startswith(src + os.sep):
        print(f"bench: ratnets imported from {ratnets.__file__}, not ./src", file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads

    speed = hostspeed.HostSpeed(REFERENCE[args.workload])
    setup_s, setup_samples, plan = set_up(workloads.BUILDERS[args.workload], root,
                                          args.seed, args.tiny, speed)
    min_items = 1 if args.tiny else MIN_ITEMS
    hard_failures: list[str] = []
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "ratnets": ratnets.__version__,
                "commit": git_commit(root), "workers": 1, "clients": 1,
                "loop": "closed"},
        "inputs": plan.shape,
        "setup_raw_s": setup_samples,
    }

    if args.trace == 0:
        timing = run_passes(plan, args.seconds, min_items, speed)
        runs = [timing]
        deciles = statistics.quantiles(timing.scaled, n=10) \
            if len(timing.scaled) > 1 else [timing.scaled[0]] * 9
        values = {
            "setup_s": setup_s,
            "items_per_s": len(timing.scaled) / timing.scaled_call_s,
            "item_p50_ms": deciles[4] * 1e3,
            "item_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        raw = statistics.quantiles(timing.latencies, n=10) \
            if len(timing.latencies) > 1 else [timing.latencies[0]] * 9
        record.update({"pass_call_s": timing.pass_call_s,
                       "raw_items_per_s": len(timing.latencies) / timing.call_s,
                       "raw_item_p50_ms": raw[4] * 1e3, "raw_item_p90_ms": raw[8] * 1e3})
    else:
        t_start = time.perf_counter()
        # no kernel runs inside items here, so that no span holds one
        plain = run_passes(plan, args.seconds * UNTRACED_SHARE, 1, speed, in_items=False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            remaining = args.seconds - (time.perf_counter() - t_start)
            traced = run_passes(plan, max(remaining, 0.0), 1, speed, tracer, in_items=False)
        finally:
            tracer.uninstall()
        runs = [plain, traced]
        overhead = ((traced.scaled_call_s / traced.passes)
                    / (plain.scaled_call_s / plain.passes) - 1.0)
        values = spans.layer_metrics(tracer, traced.passes, traced.call_s, overhead)
        units = spans.LAYER_METRICS
        coverage = values["trace.coverage"]
        plan.checks["trace_coverage"] += 1
        if not spans.COVERAGE_MIN <= coverage <= 1.0 + 1e-9:
            hard_failures.append(f"trace coverage {coverage:.4f} outside "
                                 f"[{spans.COVERAGE_MIN}, 1]")
        record.update({"untraced_pass_call_s": plain.pass_call_s,
                       "traced_pass_call_s": traced.pass_call_s,
                       "spans": len(tracer.start)})

    hard_failures.extend(plan.hard_checks())
    failures = [f for r in runs for f in r.failures]
    attempted = sum(len(r.latencies) for r in runs)
    record.update({
        "attempted": attempted, "failed": len(failures),
        "error_fraction": len(failures) / attempted,
        "failures": failures, "hard_failures": hard_failures,
        "tally": plan.tally(), "checks": dict(plan.checks),
        "host_speed": speed.summary(),
    })
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures and not hard_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
