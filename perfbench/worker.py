"""One round of a workload in a fresh interpreter.

Started by run.py as `python3 -I -S perfbench/worker.py ...` so that no
memoized certificate survives from an earlier round.  It imports domkit
from the checkout's src/, makes the op list from the seed, times each
op's domkit calls alone, and writes JSON lines to stdout:

  header   {"kernel": ..., "ops": ..., "first_op_ns": ..., "ref_ns": ...}
           CLOCK_MONOTONIC at the end of set-up, and the median of
           SETUP_REFS reference solves (speed.py) timed right after it
  answers  one line per op, {"error": ...} if the op raised
  footer   {"lat_ns": [...], "ref_ns": [...], "ref_before": [...],
            "peak_rss_kb": ..., "trace": {...} | null, "kernel_mismatch": [...]}

A reference solve runs before an op whenever REF_EVERY_NS have passed
since the last one, and once after the last op; ref_before[i] is the
index in ref_ns of the last one before op i.  Answers are written as the
ops finish, so that the worker's peak memory is domkit's, not the
answer list's.

Arguments: WORKLOAD SEED JOBS [--tiny] [--trace] [--setup-only]
[--cross-check]; --setup-only stops after the header: a set-up probe.
Only os, sys and time are imported before the set-up mark, so that
set-up time is the interpreter, domkit's import and input generation.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import domkit  # noqa: E402
from domkit import solver  # noqa: E402

from workloads import make_ops  # noqa: E402

REF_EVERY_NS = 5_000_000
SETUP_REFS = 5  # one reference solve spreads by +-30% from call to call


def _steps(steps):
    return domkit.DifferenceSet(tuple(steps))


def run_op(workload, op, jobs):
    """A thunk making exactly the op's domkit calls; answer() reads its result."""
    if workload == "scan":
        d, s, cap = op
        return lambda: domkit.search_ratio(domkit.family_set(d, s), cap, jobs=jobs)
    if workload == "gamma":
        n, steps = op
        return lambda: domkit.gamma_exact(domkit.reduce_mod(_steps(steps), n))
    if workload == "circulant":
        n, d = op
        return lambda: domkit.gamma_exact(domkit.reduce_mod(_steps(range(1, d)), n))
    d, s = op

    def family():
        ratio = domkit.domination_ratio(d, s)
        pset, _ = domkit.construct_best(d, s)
        lemma = domkit.check_block_lemma(pset, d, s)
        return ratio, pset, lemma

    return family


def answer(workload, out) -> dict:
    if workload == "scan":
        return {
            "ratio": [out.best_ratio.numerator, out.best_ratio.denominator],
            "period": out.best_witness.period,
            "residues": sorted(out.best_witness.residues),
            "rows": [[p, g] for p, g, _ in out.per_period],
        }
    if workload in ("gamma", "circulant"):
        return {"gamma": out.gamma, "witness": sorted(out.witness), "explored": out.explored}
    ratio, pset, lemma = out
    return {
        "ratio": [ratio.value.numerator, ratio.value.denominator],
        "period": pset.period,
        "residues": sorted(pset.residues),
        "lemma": lemma,
    }


def kernel_mismatches(workload, ops, limit=8) -> list:
    """Compare the compiled kernel with the pure twin where both import."""
    try:
        from domkit import _core as compiled
    except ImportError:
        return []
    from domkit import _core_py as pure

    cases = []
    for op in ops:
        if workload == "gamma":
            cases.append((op[0], op[1]))
        elif workload == "circulant":
            cases.append((op[0], tuple(range(1, op[1]))))
        if len(cases) == limit:
            break
    bad = []
    for n, steps in cases:
        offsets = sorted({0} | {t % n for t in steps})
        if compiled.solve_cover(n, offsets) != pure.solve_cover(n, offsets):
            bad.append([n, list(steps)])
    return bad


def peak_rss_kb() -> int:
    """This process's peak resident set since exec (VmHWM).  Not
    ru_maxrss: Linux carries that over exec from the parent, so it would
    count the benchmark's own memory at spawn time."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    workload, seed, jobs, *flags = sys.argv[1:]
    tracer = None
    if "--trace" in flags:
        from trace_layers import Tracer

        tracer = Tracer()
    ops = make_ops(workload, int(seed), "--tiny" in flags)
    thunks = [run_op(workload, op, int(jobs)) for op in ops]
    if tracer is not None:
        tracer.install()
    first_op_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    import json  # after the set-up mark: writing answers is not domkit's cost

    from statistics import median

    from speed import reference_ns

    ref_ns = [reference_ns() for _ in range(SETUP_REFS)]
    out = sys.stdout
    out.write(json.dumps({"kernel": solver.kernel_name(), "ops": len(ops),
                          "first_op_ns": first_op_ns, "ref_ns": median(ref_ns)}) + "\n")
    ref_ns = ref_ns[-1:]
    if "--setup-only" in flags:
        return 0
    lat, ref_before = [], []
    clock = time.perf_counter_ns
    last_ref = clock()
    for thunk in thunks:
        if clock() - last_ref >= REF_EVERY_NS:
            ref_ns.append(reference_ns())
            last_ref = clock()
        ref_before.append(len(ref_ns) - 1)
        t0 = clock()
        try:
            result = thunk()
        except Exception as exc:  # a failed op is counted, not fatal
            lat.append(clock() - t0)
            out.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
            continue
        lat.append(clock() - t0)
        out.write(json.dumps(answer(workload, result), separators=(",", ":")) + "\n")
    ref_ns.append(reference_ns())
    out.write(json.dumps({
        "lat_ns": lat,
        "ref_ns": ref_ns,
        "ref_before": ref_before,
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.summary() if tracer is not None else None,
        "kernel_mismatch": kernel_mismatches(workload, ops) if "--cross-check" in flags else [],
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
