"""Seeded benchmark of factorlab, end to end and layer by layer.

    python3 perfbench/run.py --workload hint-lsb --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports factorlab from ./src and nothing
else.  Workloads (inputs in workloads.py, all drawn from --seed):

  hint-lsb    coppersmith-lsb on balanced 56-64 bit semiprimes, hint = low
              N.bit_length()//4 bits of p.  lattice + coppersmith do the work.
  residue-t4  theorem4 on 48-bit semiprimes p = c, q = d (mod m), m of 12
              bits, c, d < 8; most solve_bivariate calls search empty boxes.
  scan        standard and ratio (r = 3/2) Fermat scans and Landry-Pepin,
              1e5-1e6 positions each; no lattice work, is_perfect_square
              carries the load.

Each solve is one call of factorlab.cli.run with the RunConfig the `bench`
subcommand builds, in a closed loop with one caller, until the solves have
taken --seconds.  Correctness checks run after the loop (workloads.check);
a wrong, missing or unexpected result or an exception is a failed solve.

The host is shared and its speed drifts by a fifth or more within seconds,
so a fixed reference kernel (reference.py: LLL for the lattice workloads, a
difference-of-squares scan for `scan`) is timed before the loop and after
every solve, and after every set-up.  The end-to-end timings are rescaled
by each interval's nominal-over-measured kernel time, so they read as if
the host had run at the kernel's nominal speed throughout; the wall-clock
figures are printed beside them.  The kernels do not use factorlab, so a
change to the library moves the rescaled timings as much as the raw ones.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates each
instance between an untraced and a traced solve (tracing.py), prints the
per-layer metrics and the tracing overhead, and writes the spans to
perfbench/traces/.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2, with no result,
when factorlab's source is missing or FACTORLAB_THREADS is set.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PREGENERATED = 18  # two blocks of strata, generated as part of set-up
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
KERNEL = {"hint-lsb": "lattice", "residue-t4": "lattice", "scan": "scan"}
SPEED_WINDOW = 2  # reference timings on each side of an interval that set its scale


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


class Capture:
    """Keeps the last value module.attr returned, so a check can read the
    root set that coppersmith handed to the CLI."""

    def __init__(self, module, attr: str):
        fn = getattr(module, attr)
        self.last = None

        def shim(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last

        setattr(module, attr, shim)


def import_factorlab():
    """A fresh import of factorlab from ./src, with BoundTooLargeWarning
    silenced the way the test configuration does it."""
    for name in [m for m in sys.modules if m.split(".")[0] == "factorlab"]:
        del sys.modules[name]
    lib = importlib.import_module("factorlab")
    for name in ("cli", "coppersmith", "errors", "fermat", "residue"):
        importlib.import_module(f"factorlab.{name}")
    if Path(lib.__file__).resolve().parent != SRC / "factorlab":
        fail(f"imported factorlab from {lib.__file__}, not from {SRC}")
    warnings.filterwarnings("ignore", category=lib.errors.BoundTooLargeWarning)
    return lib


def untraced(run, config):
    t0 = time.perf_counter()
    try:
        result, error = run(config), None
    except Exception as exc:  # counted as a failed solve
        result, error = None, repr(exc)
    return time.perf_counter() - t0, result, error


class Solve:
    """One timed solve and, once verify() has run, why it failed (or None)."""

    def __init__(self, inst, seconds, report, error, roots):
        self.inst, self.seconds, self.report, self.roots = inst, seconds, report, roots
        self.failure = error

    def verify(self, lib) -> None:
        if self.failure is None:
            self.failure = workloads.check(lib, self.inst, self.report, self.roots)


class HostSpeed:
    """Timings of a fixed reference kernel (reference.py), one before the
    first timed interval and one after each, so that each interval can be
    rescaled to the speed the host had around it."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = [reference.timed(kind)]

    def sample(self) -> float:
        self.samples.append(reference.timed(self.kind))
        return self.samples[-1]

    def scale(self, i: int) -> float:
        """Nominal over measured kernel time around interval i: the median
        of the SPEED_WINDOW timings on each side of it."""
        window = self.samples[max(0, i + 1 - SPEED_WINDOW): i + 1 + SPEED_WINDOW]
        return reference.NOMINAL_S[self.kind] / statistics.median(window)

    def relative(self) -> float:
        """The host's speed over the run, as a share of nominal."""
        return reference.NOMINAL_S[self.kind] / statistics.median(self.samples)


def set_up(workload: str, seed: int):
    """Import, input generation and one untimed warm-up solve."""
    t0 = time.perf_counter()
    lib = import_factorlab()
    capture = Capture(lib.coppersmith, "solve_lsb_known")
    instances = workloads.Instances(workload, seed)
    for i in range(PREGENERATED):
        instances[i]
    warm = workloads.make_instance(workload, seed, "warmup")
    warm_solve = Solve(warm, *untraced(lib.cli.run, workloads.config(lib.cli, warm)),
                       capture.last)
    return time.perf_counter() - t0, lib, capture, instances, warm_solve


def solve_once(lib, capture, inst, timer) -> Solve:
    capture.last = None
    seconds, report, error = timer(lib.cli.run, workloads.config(lib.cli, inst))
    return Solve(inst, seconds, report, error, capture.last)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND


def end_to_end(solves, speed: HostSpeed, setup_s: float, setup_wall_s: float
               ) -> tuple[dict, list[str]]:
    """Timings rescaled to the reference kernel's nominal speed (HostSpeed);
    the wall-clock figures go into the notes."""
    wall = [s.seconds for s in solves]
    times = [t * speed.scale(i) for i, t in enumerate(wall)]
    good = sum(1 for s in solves if s.failure is None)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "solves_per_s": (good / sum(times), "1/s"),
        "solve_p50_ms": (statistics.median(times) * 1000, "ms"),
        "solve_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"solve_tail_ms is p{tail_pct:.1f} of {len(times)} solves ({beyond} beyond it)",
        f"timings are at the {speed.kind} kernel's nominal speed; the host ran at"
        f" {speed.relative():.3f} of it",
        f"wall clock: solves_per_s {good / sum(wall):.4f}, solve_p50_ms"
        f" {statistics.median(wall) * 1000:.3f}, solve_tail_ms {tail(wall)[0] * 1000:.3f},"
        f" setup_s {setup_wall_s:.4f}",
    ]
    return metrics, notes


def median_or_0(values) -> float:
    return statistics.median(values) if values else 0.0


def scan_steps(solve: Solve) -> int:
    if solve.inst.method == "landry-pepin":
        return solve.inst.expect["t"] + 1  # positions t = 0..t
    return solve.report.steps if solve.inst.method in ("standard", "ratio") else 0


def per_layer(tracer, plain, traced) -> tuple[dict, list[str]]:
    total, layer_self = tracer.layer_times()
    calls = Counter(tracer.names)
    counts = tracer.counts
    run_s = total.get("cli.run", 0.0)
    lll_calls = calls.get("lattice.lll_rows", 0)
    lll_s = total.get("lattice.lll_rows", 0.0)
    biv_calls = counts["solve_bivariate_calls"]
    plain_s = sum(s.seconds for s in plain)
    traced_s = sum(s.seconds for s in traced)
    scanned = [s for s in plain if s.failure is None and scan_steps(s)]
    scan_s = sum(s.seconds for s in scanned)

    def frac(a, b):
        return a / b if b else 0.0

    metrics = {
        "cli.traced_solves": (len(traced), "count"),
        "cli.run_s": (run_s, "s"),
        "cli.self_frac": (frac(layer_self.get("cli", 0.0), run_s), "frac"),
        "lattice.lll_rows_calls": (lll_calls, "count"),
        "lattice.lll_rows_s": (lll_s, "s"),
        "lattice.lll_rows_us_per_call": (frac(lll_s, lll_calls) * 1e6, "us"),
        "lattice.lll_reduce_calls.dim4": (counts["lll_reduce_calls.dim4"], "count"),
        "lattice.lll_reduce_calls.dim9": (counts["lll_reduce_calls.dim9"], "count"),
        "lattice.lll_reduce_s": (total.get("lattice.lll_reduce", 0.0), "s"),
        "polynomial.resultant_calls": (calls.get("polynomial.resultant", 0), "count"),
        "polynomial.resultant_s": (total.get("polynomial.resultant", 0.0), "s"),
        "coppersmith.boxes_per_solve": (median_or_0(tracer.boxes), "count"),
        "coppersmith.column_scans": (counts["column_scans"], "count"),
        "coppersmith.uncertified_frac": (frac(counts["uncertified"], biv_calls), "frac"),
        "coppersmith.self_s": (layer_self.get("coppersmith", 0.0), "s"),
        "coppersmith.solve_bivariate_calls": (biv_calls, "count"),
        "coppersmith.noroot_frac": (frac(counts["noroot"], biv_calls), "frac"),
        "residue.theorem4_pairs_per_instance": (median_or_0(tracer.pairs), "count"),
        "residue.theorem4_pairs_s": (total.get("residue.theorem4_pairs", 0.0), "s"),
        "residue.landry_pepin_t_steps": (
            sum(scan_steps(s) for s in traced if s.inst.method == "landry-pepin"),
            "count"),
        "residue.landry_pepin_s": (total.get("residue.landry_pepin", 0.0), "s"),
        "fermat.scan_steps": (counts["fermat_steps"], "count"),
        "fermat.scan_s": (total.get("fermat.fermat_standard", 0.0)
                          + total.get("fermat.fermat_ratio", 0.0), "s"),
        "arith.is_perfect_square_calls": (counts["arith.is_perfect_square_calls"], "count"),
        "arith.is_perfect_square_s": (counts["arith.is_perfect_square_s"], "s"),
        "scan_steps_per_s": (frac(sum(scan_steps(s) for s in scanned), scan_s), "1/s"),
        "trace_overhead_frac": (frac(traced_s, plain_s) - 1.0, "frac"),
    }
    shares = ", ".join(f"{layer} {sec:.4f}" for layer, sec in sorted(layer_self.items()))
    notes = [
        f"self time by layer (s): {shares}; sum {sum(layer_self.values()):.4f}"
        f" of cli.run_s {run_s:.4f}",
        f"scan_steps_per_s and trace_overhead_frac come from the {len(plain)}"
        " untraced solves of the same instances",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "factorlab" / "__init__.py").is_file():
        fail(f"factorlab source not found under {SRC}")
    if os.environ.get("FACTORLAB_THREADS") is not None:
        fail("FACTORLAB_THREADS is set; unset it so no thread pool runs while measuring")
    sys.path.insert(0, str(SRC))

    setup_speed = HostSpeed(KERNEL[args.workload])
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(args.workload, args.seed))
        setup_speed.sample()
    setup_s = statistics.median(s[0] * setup_speed.scale(i) for i, s in enumerate(setups))
    setup_wall_s = statistics.median(s[0] for s in setups)
    _, lib, capture, instances, _ = setups[-1]
    warm = [s[4] for s in setups]

    plain: list[Solve] = []
    traced: list[Solve] = []
    tracer = tracing.Tracer() if args.trace else None
    speed = HostSpeed(KERNEL[args.workload])
    busy, i = speed.samples[0], 0
    while busy < args.seconds:
        plain.append(solve_once(lib, capture, instances[i], untraced))
        busy += plain[-1].seconds + speed.sample()
        if tracer:
            tracer.install(lib)
            try:
                traced.append(solve_once(lib, capture, instances[i], tracer.solve))
            finally:
                tracer.uninstall()
            busy += traced[-1].seconds
        i += 1

    solves = plain + traced
    for s in warm + solves:
        s.verify(lib)
    failures = [s for s in solves if s.failure]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_lines": src_lines(),
        "factorlab_threads": "unset",
    }
    if tracer:
        metrics, notes = per_layer(tracer, plain, traced)
        out_dir = Path(__file__).resolve().parent / "traces"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}-seed{args.seed}.json", meta)
    else:
        metrics, notes = end_to_end(plain, speed, setup_s, setup_wall_s)

    print(f"meta {json.dumps(meta)}")
    for s in warm:
        if s.failure:
            print(f"warm-up FAILED n={s.inst.n}: {s.failure}")
    for s in failures[:20]:
        print(f"FAILED {s.inst.method} n={s.inst.n}: {s.failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>16.6f} {unit}")
    for note in notes:
        print(note)
    print(f"fail_frac = {len(failures)}/{len(solves)} = {len(failures) / len(solves):.4f}")
    print(json.dumps({
        "correct": not failures and not any(s.failure for s in warm),
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
