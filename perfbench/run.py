"""diskdispersal benchmark.

    python3 perfbench/run.py --workload random-small --seed 1 --seconds 20 --trace 0

runs one workload in this process, single-threaded, with the default
SolverConfig, for whole rounds until --seconds have passed.  It prints every
metric by name with its unit, and as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics of untraced rounds; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones plus the
tracing overhead.  --workload all (the default) runs every workload, each in
a process of its own, one after the other.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import library

library.load()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter
SETUP_REPEATS = 9

# end-to-end metrics, reported by every workload: name -> unit
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "validate_s": "s",
    "roundtrip_s": "s",
    "peak_rss_mb": "MB",
}
OVERHEAD = ("trace.overhead_pct", "%")

# the child times its own import, so the interpreter's start is left out
IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t0 = time.perf_counter(); import diskdispersal; "
          "print(time.perf_counter() - t0)")


def _import_in_child() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT, str(library.SRC)],
                          check=True, timeout=60, capture_output=True,
                          text=True)
    return float(proc.stdout.split()[-1])


def setup_once(wl, seed: int, meter):
    """Import the package in a fresh interpreter, then build the inputs in
    this one.  Returns the inputs, and the seconds of the import plus the
    build, in wall time and at reference speed; the import is scaled by the
    speed sampled while the child ran."""
    import_s, wall, at_ref = meter.time(_import_in_child)
    inputs, build_wall, build_at_ref = meter.time(wl.make, seed)
    scale = at_ref / wall if wall > 0 else 1.0
    return inputs, import_s + build_wall, import_s * scale + build_at_ref


def check(wl, inputs, rec) -> str | None:
    """The check's message on one operation; a check that raises fails
    that operation and no other."""
    try:
        return wl.check(inputs, rec)
    except Exception as exc:
        return f"check raised {exc!r}"


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up SETUP_REPEATS times, then run whole rounds for ``seconds``;
    with ``traced``, every second round runs under a Tracer.  Returns the
    report of the last output line."""
    wl = workloads.WORKLOADS[name]
    with speed.Speedometer() as meter:
        setups = [setup_once(wl, seed, meter) for _ in range(SETUP_REPEATS)]
        inputs = setups[-1][0]
        plain, with_trace, problems = [], [], []
        first_out = first_err = None
        attempted = failed = 0
        start = clock()
        while True:
            tracer = layers.Tracer() \
                if traced and len(plain) > len(with_trace) else None
            if tracer is None:
                rnd = wl.round(inputs, meter)
            else:
                with tracer:
                    rnd = wl.round(inputs, meter, repeat=False)
            if first_out is None:
                # later rounds reuse freed memory unevenly, so the peak is
                # taken after the first round
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
                # the checks do not count towards the measured seconds
                t_check = clock()
                first_out = rnd.outputs
                first_err = [check(wl, inputs, rec) for rec in rnd.records]
                start += clock() - t_check
                for msg, rec in zip(first_err, rnd.records):
                    if msg:
                        print(f"{name}: failed: {describe(rec)}: {msg}",
                              file=sys.stderr)
            rnd.records = None         # let the round's outputs go
            attempted += len(rnd.outputs)
            differ = [out != first for out, first in
                      zip(rnd.outputs, first_out)]
            failed += sum(1 for d, err in zip(differ, first_err) if d or err)
            if tracer is None:
                plain.append(rnd)
            else:
                with_trace.append((rnd, tracer.metrics()))
                problems += tracer.accounting_errors()
                if any(differ):
                    problems.append(f"{sum(differ)} outputs of a traced "
                                    "round differ from the untraced ones")
            if clock() - start >= seconds and (with_trace or not traced):
                break
    for p in sorted(set(problems)):
        print(f"{name}: incorrect: {p}", file=sys.stderr)
    if traced:
        metrics = per_layer(plain, with_trace)
        extra = {}
    else:
        setup_s = statistics.median(at_ref for _, _, at_ref in setups)
        metrics = end_to_end(plain, setup_s, peak_rss_mb)
        extra = workload_figures(plain)
        extra["wall.setup_s"] = {
            "value": statistics.median(wall for _, wall, _ in setups),
            "unit": "s"}
    print(f"workload {name}, seed {seed}: {len(plain) + len(with_trace)} "
          f"rounds ({len(with_trace)} traced), {attempted} operations "
          f"attempted, {failed} failed; mean probe "
          f"{1e6 * statistics.mean(meter.probes):.1f} us, reference "
          f"{1e6 * speed.REFERENCE:.1f} us")
    for key, m in list(metrics.items()) + list(extra.items()):
        print(f"  {key:32s} {m['value']:14.6f} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(plain, with_trace) -> dict:
    """Medians over the traced rounds, and the tracing overhead: the traced
    against the untraced median round time."""
    units = dict(layers.METRICS)
    values = {key: statistics.median(m[key] for _, m in with_trace)
              for key in units}
    traced_total = statistics.median(r.total for r, _ in with_trace)
    plain_total = statistics.median(r.total for r in plain)
    values[OVERHEAD[0]] = 100.0 * (traced_total / plain_total - 1.0)
    units[OVERHEAD[0]] = OVERHEAD[1]
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def end_to_end(rounds, setup_s: float, peak_rss_mb: float) -> dict:
    med = lambda key: statistics.median(r.times[key] for r in rounds)  # noqa: E731
    values = {
        "setup_s": setup_s,
        "round_s": statistics.median(r.total for r in rounds),
        "validate_s": med("validate_s"),
        "roundtrip_s": med("roundtrip_s"),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def workload_figures(rounds) -> dict:
    """Figures printed but not in the JSON line: those only some workloads
    have, and the wall seconds behind the scaled times."""
    med = statistics.median
    out = {}
    for key in rounds[0].times:
        if key not in END_TO_END:
            out[key] = {"value": med(r.times[key] for r in rounds), "unit": "s"}
    if rounds[0].samples:
        # per instance: the median over rounds, then quantiles over instances
        per = [med(s) for s in zip(*(r.samples for r in rounds))]
        out["solve_p50_ms"] = {"value": 1000 * med(per), "unit": "ms"}
        if len(per) >= 100:
            p90 = statistics.quantiles(per, n=10, method="inclusive")[-1]
            out["solve_p90_ms"] = {"value": 1000 * p90, "unit": "ms"}
        out["instances"] = {"value": len(per), "unit": "count"}
    out["wall.round_s"] = {"value": med(sum(r.wall.values()) for r in rounds),
                           "unit": "s"}
    for key in rounds[0].wall:
        out[f"wall.{key}"] = {"value": med(r.wall[key] for r in rounds),
                              "unit": "s"}
    return out


def describe(op) -> str:
    head = op[0]
    return getattr(head, "label", head)


def run_all(args) -> int:
    """Every workload in a child process of its own, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited "
                             f"with {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
