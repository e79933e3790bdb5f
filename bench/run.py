"""meyersig benchmark: closed-loop workloads, one caller, no threads.

Run from the repository root:

    python3 bench/run.py --workload cocycle-sweep --seed 1 --seconds 25 --trace 0

Workloads: cocycle-sweep, phi1-batch, cli-oneshot (see bench/README.md).
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Lines before it describe the inputs, the checks, the
plain wall-clock figures and every metric with its unit. Exit code 1 means
an output failed its check, 2 that the library sources are missing.

End-to-end times are rescaled to reference speed: the workload's reference
computation, which shares no code with the library, runs after every op
(and around every set-up), and each time is multiplied by the workload's
``ref_s`` over the reference's median time around it. The host's speed
drifts by a fifth in phases of seconds to minutes; the rescaling cancels
that drift and keeps what the program costs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_OPS = 100  # p90 then has at least 10 samples beyond it
SETUP_TIMEOUT_S = 150
REF_HALF_WINDOW = 4  # an op is rescaled by the median of 9 reference times around it
REF_AROUND_SETUP = 5  # reference times taken before and after each set-up

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "symplectic.validate.self_s": "s",
    "symplectic.validate.calls": "count",
    "symplectic.validate.s": "s",
    "symplectic.revalidate_ratio": "ratio",
    "symplectic.mul.self_s": "s",
    "symplectic.mul.calls": "count",
    "symplectic.inverse.self_s": "s",
    "symplectic.inverse.calls": "count",
    "symplectic.sl2_word.self_s": "s",
    "symplectic.sl2_word.letters": "count",
    "exactnum.kernel_basis.self_s": "s",
    "exactnum.kernel_basis.calls": "count",
    "exactnum.kernel_basis.dim": "count",
    "exactnum.gram_restrict.self_s": "s",
    "exactnum.gram_restrict.calls": "count",
    "exactnum.gram.max_bits": "bits",
    "exactnum.signature_symmetric.self_s": "s",
    "exactnum.signature_symmetric.calls": "count",
    "exactnum.matmul.self_s": "s",
    "exactnum.matmul.calls": "count",
    "exactnum.parse_matrix.self_s": "s",
    "exactnum.parse_matrix.calls": "count",
    "meyer.tau.self_s": "s",
    "meyer.tau.calls": "count",
    "meyer.tau.g1.p50_ms": "ms",
    "meyer.tau.g2.p50_ms": "ms",
    "meyer.tau.g3.p50_ms": "ms",
    "meyer.tau.g4.p50_ms": "ms",
    "meyer.tau.g6.p50_ms": "ms",
    "meyer.phi1_base.calls": "count",
    "meyer.phi1_base.s": "s",
    "meyer.phi1_word.self_s": "s",
    "meyer.fold.tau_calls": "count",
    "meyer.tau_per_phi1": "ratio",
    "cli.process_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s",
    "varieties.self_s": "s",
    "varieties.calls": "count",
    "localsig.self_s": "s",
    "localsig.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh interpreter, for the median of setup_s
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def at_reference_speed(latencies, refs, ref_s):
    """Each latency times ref_s over the median reference time around it."""
    out = []
    for i, latency in enumerate(latencies):
        local = refs[max(0, i - REF_HALF_WINDOW): i + REF_HALF_WINDOW + 1]
        out.append(latency * ref_s / statistics.median(local))
    return out


def timed_setup(workload) -> tuple[float, float]:
    """Set up once; return the wall time and the time at reference speed."""
    refs = [workload.reference() for _ in range(REF_AROUND_SETUP)]
    t0 = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - t0
    refs += [workload.reference() for _ in range(REF_AROUND_SETUP)]
    return wall, wall * workload.ref_s / statistics.median(refs)


def setup_times(workload, args) -> list[tuple[float, float]]:
    """Set up SETUP_REPEATS times; the last set-up is the one the run uses.

    In-process workloads repeat it in fresh interpreters, so import-time work
    and caches filled by warm-up are paid each time. cli-oneshot imports the
    library in every op instead, and repeats its set-up in this process so
    that only CLI processes count towards its RUSAGE_CHILDREN peak.
    """
    times = []
    for _ in range(SETUP_REPEATS - 1):
        if not workload.in_process:
            times.append(timed_setup(workload))
            continue
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
        times.append(tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
    times.append(timed_setup(workload))
    return times


def closed_loop(call, schedule, seconds=math.inf, min_ops=1, count=None, reference=None):
    """Issue ops one after another until ``seconds`` have passed (and at
    least ``min_ops`` ran), or until ``count`` ops ran. With ``reference``,
    call it after every op and collect the times it returns."""
    records, latencies, refs = [], [], []
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    for op in schedule:
        t0 = perf()
        try:
            value, ok = call(op), True
        except Exception as exc:  # a failing op is counted, not fatal
            value, ok = f"{type(exc).__name__}: {exc}", False
        t1 = perf()
        latencies.append(t1 - t0)
        records.append((op, ok, value))
        if reference is not None:
            refs.append(reference())
        n = len(records)
        if n == count or (count is None and perf() >= deadline and n >= min_ops):
            break
    return records, latencies, refs, perf() - start


def percentile_blocks(workload, records, latencies, fractions=(0.5, 0.9)):
    """Block of inputs at each percentile rank, and how many ops separate
    that rank from the nearest op of another block in latency order."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    classes = [workload.block(records[i][0]) for i in order]
    out = {}
    for q in fractions:
        r = min(len(order) - 1, round(q * (len(order) - 1)))
        lo = hi = r
        while lo > 0 and classes[lo - 1] == classes[r]:
            lo -= 1
        while hi < len(classes) - 1 and classes[hi + 1] == classes[r]:
            hi += 1
        out[f"p{round(q * 100)}"] = {"class": classes[r], "margin_ops": min(r - lo, hi - r) + 1}
    return out


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def emit(args, shape, notes, metrics, units, attempted, failed, wall_clock=None):
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("inputs " + json.dumps(shape, sort_keys=True))
    print("checks " + json.dumps(notes, sort_keys=True))
    if wall_clock is not None:
        print("wall_clock " + json.dumps(wall_clock, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>16.6g} ratio ({failed}/{attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def latency_metrics(ops, latencies, setups):
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": ops,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": q[8] * 1e3,
        "setup_s": statistics.median(setups),
    }


def run_timed(workload, args, setups):
    records, latencies, refs, wall = closed_loop(
        workload.call, workload.schedule(), args.seconds, MIN_OPS, reference=workload.reference
    )
    rss = peak_rss_mb(workload)  # before the checks, which may import sympy
    failed, notes = workload.check(records)
    scaled = at_reference_speed(latencies, refs, workload.ref_s)
    notes["percentile_blocks"] = percentile_blocks(workload, records, scaled)
    notes["ops"] = len(records)
    metrics = latency_metrics(len(scaled) / sum(scaled), scaled, [s for _, s in setups])
    metrics["peak_rss_mb"] = rss
    notes["setup_s_samples"] = [s for _, s in setups]
    # the same figures in plain wall-clock time; the timed phase's wall time
    # also holds the reference runs
    wall_clock = latency_metrics(len(latencies) / sum(latencies), latencies, [w for w, _ in setups])
    wall_clock["host_speed"] = workload.ref_s / statistics.median(refs)
    wall_clock["setup_s_samples"] = [w for w, _ in setups]
    wall_clock["timed_phase_s"] = wall
    return emit(args, workload.shape(records), notes, metrics, END_TO_END_UNITS,
                len(records), sum(failed), wall_clock)


def run_traced(workload, args):
    """Untraced then traced in-process passes over the same op sequence.

    The sequence is a fixed number of whole periods of the schedule, so for
    a given seed every count repeats exactly and the sums compare across
    commits however fast each one runs.
    """
    period = sum(w for _, w, _ in workload.classes)
    count = -(-MIN_OPS // period) * period
    workload.trace_call(next(workload.schedule()))  # warm the in-process path
    base, _, _, base_wall = closed_loop(workload.trace_call, workload.schedule(), count=count)
    tracer = Tracer()
    missing = tracer.install()
    try:
        traced, _, _, traced_wall = closed_loop(
            lambda op: tracer.call("op", workload.trace_call, op),
            workload.schedule(),
            count=count,
        )
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics.update(workload.layer_extras())
    metrics["trace.overhead_ratio"] = base_wall / traced_wall  # same ops on both sides
    metrics = {name: metrics[name] for name in LAYER_UNITS}
    records = base + traced
    failed, notes = workload.check(records)
    notes.update(untraced_ops=len(base), traced_ops=len(traced), spans=len(tracer.spans),
                 missing_targets=missing)
    return emit(args, workload.shape(traced), notes, metrics, LAYER_UNITS,
                len(records), sum(failed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meyersig" / "__init__.py").is_file():
        print(f"error: no meyersig sources under {SRC}; run from a meyersig checkout",
              file=sys.stderr)
        return 2
    # Build: byte-compile the library, so every import in the run, in this
    # process or in a CLI subprocess, loads bytecode as an installed package
    # would, whether or not the environment lets Python write .pyc files.
    if not compileall.compile_dir(str(SRC / "meyersig"), quiet=1):
        print("error: the meyersig sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(workload)}))
            return 0
        if args.trace:
            timed_setup(workload)
            return run_traced(workload, args)
        return run_timed(workload, args, setup_times(workload, args))
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
