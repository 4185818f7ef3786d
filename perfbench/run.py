"""treecount benchmark.

Run from the root of a treecount checkout:

    python3 perfbench/run.py --workload catalog_jobs2 --seed 1 --seconds 48 --trace 0

The program is imported from ``src/`` of the current directory.  Each
workload runs as a closed loop in this one process: passes back to back,
at most two worker processes (catalog_jobs2's pools).

--trace 0  sets up several times (median is ``setup_s``), then runs
           --seconds worth of passes at the workload's nominal pass time (at
           least two), and prints the end-to-end metrics of BENCHMARK.json.
--trace 1  runs one untraced pass (for catalog_jobs2 at --jobs 2 and at
           --jobs 1), one traced pass at jobs=1 and one more untraced pass
           at jobs=1, and prints the per-layer metrics.

Every output is checked; a pass with a wrong output is reported as failed
and not timed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# set up at least SETUP_MIN times, and up to SETUP_MAX while under SETUP_SECONDS
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 2.0
MIN_PASSES = 2
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import treecount.cli; "
                 "print(time.perf_counter() - t)")


def _load_program(root: str):
    """Import treecount from ``root/src``; None if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "treecount", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import treecount
    import treecount.cli
    if os.path.dirname(os.path.abspath(treecount.__file__)) != os.path.join(src, "treecount"):
        return None
    return treecount


def _import_seconds(root: str) -> float:
    """Import time of treecount.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, os.path.join(root, "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _freeze_inputs() -> None:
    """Move the inputs and reference values the benchmark holds for the
    whole run out of the garbage collector's reach.  A program run on one
    input does not carry them, and scanning them (over a million objects on
    large_trees) made every collection in a pass slower."""
    gc.collect()
    gc.freeze()


def _upper(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it (the
    maximum when there are fewer than eleven samples)."""
    if len(values) < 11:
        return "max", max(values)
    q = 100 * (len(values) - 10) // len(values)
    return f"p{q}", statistics.quantiles(values, n=100)[q - 1]


class Run:
    """Collects passes, compares their outputs, and tallies operations."""

    def __init__(self):
        self.passes = []
        self.problems = []
        self.first_outputs = {}

    def add(self, label: str, p) -> None:
        for key, text in p.outputs.items():
            first = self.first_outputs.setdefault(key, (label, text))
            if first[1] != text:
                p.problems.append(f"{key}: {label} output differs from {first[0]}")
        self.passes.append(p)
        state = "ok" if p.clean else "FAILED CHECK"
        parts = ", ".join(f"{key} {sum(v):.4f} s" for key, v in p.timings.items())
        print(f"pass {len(self.passes)} [{label}] {p.wall:.4f} s ({parts}), {p.ops} ops, "
              f"{len(p.failures)} failed, {state}")
        for problem in p.problems:
            print(f"  problem: {problem}")

    @property
    def correct(self) -> bool:
        return not self.problems and all(p.clean for p in self.passes)

    def tally(self) -> tuple[int, int]:
        attempted = sum(p.ops for p in self.passes)
        failed = sum(min(p.ops, len(p.failures) + len(p.problems)) for p in self.passes)
        reasons = Counter(f"{op}: {why} ({'known defect' if known else 'unexpected'})"
                          for p in self.passes for op, why, known in p.failures)
        print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6f} ratio")
        for why, count in sorted(reasons.items()):
            print(f"  {count} x {why}")
        return attempted, failed


def _measure(w, seconds: float, run: Run) -> dict:
    setups = []
    run.problems += w.prepare()
    while len(setups) < SETUP_MIN or sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX:
        imported = _import_seconds(os.getcwd())
        start = time.perf_counter()
        w.setup()
        setups.append(imported + time.perf_counter() - start)
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    _freeze_inputs()
    for _ in range(max(MIN_PASSES, round(seconds / w.PASS_SECONDS))):
        run.add(f"jobs={w.jobs}", w.run_pass(w.jobs))
    timed = [p for p in run.passes if p.clean] or run.passes
    walls = [p.wall for p in timed]
    label, upper = _upper(walls)
    print(f"wall_s: median {statistics.median(walls):.4f} s, {label} {upper:.4f} s, "
          f"{len(walls)} timed passes of {len(run.passes)}")
    for key in ("report", "totals"):
        values = [s for p in timed for s in p.timings.get(key, [])]
        if values:
            print(f"{key}_s = {statistics.median(values):.6f} s "
                  f"(median of {len(values)} calls)")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        # items of the median pass: a mean over the passes would take in
        # every slow spell of the machine
        "checks_per_s": (statistics.median(p.items / p.wall for p in timed), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _trace(w, tc, run: Run) -> dict:
    from spans import Tracer

    run.problems += w.prepare()
    w.setup()
    _freeze_inputs()
    measured = w.run_pass(w.jobs)
    run.add(f"jobs={w.jobs}", measured)
    serial = measured
    if w.jobs > 1:
        serial = w.run_pass(1)
        run.add("jobs=1", serial)
    tracer = Tracer()
    tracer.install(tc.__name__)
    try:
        traced = w.run_pass(1)
    finally:
        tracer.uninstall()
    run.add("jobs=1 traced", traced)
    after = w.run_pass(1)
    run.add("jobs=1", after)
    print("\n".join(tracer.table()))
    rows = tracer.by_name()  # name -> [calls, total s, self s]
    sequences = tracer.yields["enumeration.all_level_sequences"]
    theorems = sum(measured.timings.get("theorems", []))

    def per_call(scale: float, *names: str, column: int = 2) -> float:
        """Self (or, with column=1, total) time per call, in 1/scale s."""
        calls = sum(rows[n][0] for n in names)
        return sum(rows[n][column] for n in names) * scale / calls if calls else 0.0

    return {
        "enumeration.levelseq_us": (rows["enumeration.all_level_sequences"][2] * 1e6 / sequences
                                    if sequences else 0.0, "us"),
        "enumeration.sequences": (sequences, "count"),
        "tree.build_us": (per_call(1e6, "tree.tree_from_level_sequence"), "us"),
        "tree.canonical_us": (per_call(1e6, "tree.canonical_form"), "us"),
        "tree.canonical_calls": (rows["tree.canonical_form"][0], "count"),
        "tree.parse_ms": (per_call(1e3, "tree.parse_tree"), "ms"),
        "counting.F_us": (per_call(1e6, "counting.count_subtrees"), "us"),
        "counting.Fstar_us": (per_call(1e6, "counting.count_leaf_subtrees"), "us"),
        "counting.F_calls": (rows["counting.count_subtrees"][0], "count"),
        "counting.anchored_us": (per_call(1e6, "counting.count_subtrees_at",
                                          "counting.count_leaf_subtrees_at"), "us"),
        "counting.report_s": (per_call(1, "counting.count_report", column=1), "s"),
        "invariants.matching_us": (per_call(1e6, "invariants.matching_number"), "us"),
        "invariants.domination_us": (per_call(1e6, "invariants.domination_number"), "us"),
        "invariants.diameter_us": (per_call(1e6, "invariants.diameter"), "us"),
        "invariants.profile_s": (per_call(1, "invariants.invariant_profile", column=1), "s"),
        "transforms.rewrite_us": (per_call(1e6, "transforms.a_transform", "transforms.b_transform",
                                           "transforms.c_transform"), "us"),
        "families.construct_us": (per_call(1e6, "families.construct"), "us"),
        "families.closed_form_us": (per_call(1e6, "families.closed_form"), "us"),
        "verify.self_s": (rows["verify.verify_theorem"][2] + rows["verify.run_lemma_suite"][2], "s"),
        "verify.parallel_eff": (sum(serial.timings["theorems"] + after.timings["theorems"])
                                / (4 * theorems) if w.jobs > 1 and theorems else 0.0, "ratio"),
        "cli.self_ms": (per_call(1e3, "cli.main"), "ms"),
        "trace_overhead_frac": (2 * traced.wall / (serial.wall + after.wall) - 1, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    tc = _load_program(root)
    if tc is None:
        print(f"perfbench: no treecount sources under {os.path.join(root, 'src')}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run()
    try:
        w = WORKLOADS[args.workload](tc, args.seed, workdir)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
        metrics = _trace(w, tc, run) if args.trace else _measure(w, args.seconds, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for problem in run.problems:
        print(f"problem: {problem}")
    attempted, failed = run.tally()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": run.correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
