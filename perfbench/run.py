"""domkit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

A run repeats rounds of the same op list until the time is spent.  Every
round is a fresh interpreter (worker.py), because domkit memoizes
certificates process-wide and a reused process would measure dictionary
lookups.  Before the rounds, one discarded worker warms the bytecode
cache and SETUP_PROBES more measure set-up alone.  This process never
imports domkit: it checks every answer with oracles.py.  Every time is
scaled by a reference solve timed next to it (speed.py), because this
host's speed drifts by more than the bounds within a run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, including the
tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import gamma_table  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from speed import scaled_ms  # noqa: E402

SETUP_PROBES = 10
ROUND_TIMEOUT_S = 120  # a normal round takes under 5 s; keeps a hung run under 180 s
REF_WINDOW = 6  # one reference solve spreads by +-30%; six still follow the drift
TAIL_BEYOND = 10  # op_tail_ms is the latency with exactly this many ops above it


class BenchError(Exception):
    """The benchmark cannot produce a result (no domkit, worker crash)."""


def spawn(workload, seed, *, tiny=False, trace=False, setup_only=False, cross_check=False, jobs=1):
    """Run one worker; returns its set-up time (scaled, s), header, answer
    lines and footer."""
    cmd = [sys.executable, "-I", "-S"]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [WORKER, workload, str(seed), str(jobs)]
    cmd += [flag for on, flag in ((tiny, "--tiny"), (trace, "--trace"),
                                  (setup_only, "--setup-only"), (cross_check, "--cross-check")) if on]
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOMKIT_")}
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.splitlines()
    header = json.loads(lines[0])
    setup_ns = header["first_op_ns"] - t0
    result = {
        "setup_s": scaled_ms(setup_ns, header["ref_ns"]) / 1e3,
        "setup_raw_s": setup_ns / 1e9,
        "header": header,
    }
    if not setup_only:
        result["answers"] = lines[1:-1]
        result["footer"] = json.loads(lines[-1])
        if len(result["answers"]) != header["ops"]:
            raise BenchError("worker returned a wrong number of answers")
    if trace:
        result["imports_us"] = parse_importtime(err)
    return result


def parse_importtime(stderr: str) -> dict[str, int]:
    """Cumulative microseconds per module from `-X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum)
    return cumulative


# -- checks -----------------------------------------------------------------

def family_steps(d: int, s: int) -> tuple[int, ...]:
    return tuple(range(1, d - 1)) + (s,)


def expected(workload: str, op: tuple, table: dict | None):
    """The oracle's answer: the ratio (scan, family) or gamma."""
    if workload in ("scan", "family"):
        return oracles.closed_form_ratio(op[0], op[1])
    if workload == "gamma":
        return table[gamma_table.key(*op)]
    n, d = op
    return -(-n // d)


def check(workload: str, op: tuple, ans: dict, want) -> bool:
    """Whether one op's answer agrees with the oracles; a malformed answer
    is a wrong one."""
    try:
        return "error" not in ans and _check(workload, op, ans, want)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
        return False


def _check(workload: str, op: tuple, ans: dict, want) -> bool:
    if workload in ("scan", "family"):
        d, s = op[0], op[1]
        steps = family_steps(d, s)
        ratio = Fraction(*ans["ratio"])
        period, residues = ans["period"], ans["residues"]
        ok = (
            ratio == want
            and oracles.ratio_properties_hold(d, s, ratio)
            and Fraction(len(set(residues)), period) == ratio
            and oracles.covers(period, steps, residues)
        )
        if workload == "family":
            return ok and ans["lemma"] is True and oracles.block_lemma_holds(period, residues, d, s)
        cap = op[2]
        rows = ans["rows"]
        return (
            ok
            and [p for p, _ in rows] == list(range(1, cap + 1))
            and all(oracles.lower_bound(p, steps) <= g <= p and Fraction(g, p) >= ratio for p, g in rows)
            and Fraction(rows[period - 1][1], period) == ratio
        )
    n, steps = (op[0], op[1]) if workload == "gamma" else (op[0], tuple(range(1, op[1])))
    witness = ans["witness"]
    return (
        ans["gamma"] == want
        and len(set(witness)) == want
        and want >= oracles.lower_bound(n, steps)
        and oracles.covers(n, steps, witness)
    )


class Checker:
    """Checks round 1 op by op; a later round whose answers are the same
    bytes has the same failures, any other round is checked again."""

    def __init__(self, workload: str, ops: list):
        self.workload = workload
        self.ops = ops
        table = gamma_table.load() if workload == "gamma" else None
        self.wants = [expected(workload, op, table) for op in ops]
        self.reference = None
        self.reference_failed = 0

    def failed(self, answers: list[str]) -> int:
        if answers == self.reference:
            return self.reference_failed
        count = sum(
            not check(self.workload, op, json.loads(line), want)
            for op, line, want in zip(self.ops, answers, self.wants)
        )
        if self.reference is None:
            self.reference, self.reference_failed = answers, count
        return count


# -- metrics ----------------------------------------------------------------

def tail_index(n_ops: int) -> int:
    return max(0, n_ops - TAIL_BEYOND - 1)


def op_ms(footer: dict) -> list[float]:
    """Each op's latency scaled by the median of the REF_WINDOW reference
    solves around it, half before and half after."""
    ref = footer["ref_ns"]
    half = REF_WINDOW // 2
    return [
        scaled_ms(ns, statistics.median(ref[max(0, k + 1 - half): k + 1 + half]))
        for ns, k in zip(footer["lat_ns"], footer["ref_before"])
    ]


def raw_ms(footer: dict) -> list[float]:
    return [ns / 1e6 for ns in footer["lat_ns"]]


def op_metrics(lat_ms: list[list[float]]) -> dict:
    """Throughput, p50 and tail from each round's per-op latencies (ms)."""
    n_ops = len(lat_ms[0])
    per_op = sorted(statistics.median(r[i] for r in lat_ms) for i in range(n_ops))
    return {
        "throughput_ops_s": (statistics.median(n_ops / (sum(r) / 1e3) for r in lat_ms), "ops/s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_tail_ms": (per_op[tail_index(n_ops)], "ms"),
    }


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    return {
        **op_metrics([op_ms(r["footer"]) for r in rounds]),
        "peak_rss_mb": (statistics.median(r["footer"]["peak_rss_kb"] / 1024 for r in rounds), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def unscaled(rounds: list[dict], raw_setups: list[float]) -> dict:
    """The time metrics as measured, before scaling, and the reference solve."""
    ref = [ns / 1e6 for r in rounds for ns in r["footer"]["ref_ns"]]
    return {
        **op_metrics([raw_ms(r["footer"]) for r in rounds]),
        "setup_s": (statistics.median(raw_setups), "s"),
        "reference_solve_ms": (statistics.median(ref), "ms"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced rounds."""

    def layer(r: dict) -> dict:
        t = r["footer"]["trace"]
        calls, total, own = t["calls"], t["total_ns"], t["self_ns"]

        def per_call_us(name, times):
            return times.get(name, 0) / calls[name] / 1e3 if calls.get(name) else 0.0

        kernel_ns = total.get("solve_cover", 0)
        gamma_calls = calls.get("gamma_exact", 0)
        search_ns = total.get("search_ratio", 0)
        imports = r["imports_us"]
        return {
            "import.domkit_ms": (imports.get("domkit", 0) / 1e3, "ms"),
            "import.search_ms": (imports.get("domkit.search", 0) / 1e3, "ms"),
            "formula.domination_ratio_us": (per_call_us("domination_ratio", total), "us"),
            "formula.domination_ratio_calls": (calls.get("domination_ratio", 0), "count"),
            "construct.construct_best_self_us": (per_call_us("construct_best", own), "us"),
            "construct.verify_dominating_us": (per_call_us("verify_dominating", total), "us"),
            "construct.verify_dominating_calls": (calls.get("verify_dominating", 0), "count"),
            "construct.check_block_lemma_self_us": (per_call_us("check_block_lemma", own), "us"),
            "solver.reduce_mod_us": (per_call_us("reduce_mod", total), "us"),
            "solver.gamma_exact_calls": (gamma_calls, "count"),
            "solver.gamma_cache_hit_ratio": (
                1 - calls.get("solve_cover", 0) / gamma_calls if gamma_calls else 0.0, "ratio"),
            "solver.gamma_exact_self_ms": (own.get("gamma_exact", 0) / 1e6, "ms"),
            "solver.verify_witness_ms": (total.get("verify_witness", 0) / 1e6, "ms"),
            "kernel.solve_cover_ms": (kernel_ns / 1e6, "ms"),
            "kernel.solve_cover_calls": (calls.get("solve_cover", 0), "count"),
            "kernel.nodes": (t["nodes"], "count"),
            "kernel.nodes_max": (t["nodes_max"], "count"),
            "kernel.us_per_node": (kernel_ns / t["nodes"] / 1e3 if t["nodes"] else 0.0, "us"),
            "kernel.compiled": (int(r["header"]["kernel"] == "compiled"), "flag"),
            "search.search_ratio_self_ms": (own.get("search_ratio", 0) / 1e6, "ms"),
            "search.top3_period_share": (t["top3_ns"] / search_ns if search_ns else 0.0, "ratio"),
        }

    samples = [layer(r) for r in traced]
    metrics = {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    op_time = statistics.median(sum(op_ms(r["footer"])) for r in untraced)
    traced_time = statistics.median(sum(op_ms(r["footer"])) for r in traced)
    metrics["trace.overhead_pct"] = (100 * (traced_time - op_time) / op_time, "%")
    return metrics


# -- a run ------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, jobs: int) -> dict:
    ops = workloads.make_ops(workload, seed)
    checker = Checker(workload, ops)
    start = time.monotonic()
    spawn(workload, seed, setup_only=True)  # warms the bytecode and page cache
    probes = [spawn(workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    raw_setups = [p["setup_raw_s"] for p in probes]
    untraced, traced, walls = [], [], []
    attempted = failed = 0
    mismatches = []
    while True:
        traced_round = trace and len(untraced) > len(traced)
        t0 = time.monotonic()
        r = spawn(workload, seed, trace=traced_round, cross_check=not untraced, jobs=jobs)
        attempted += len(ops)
        failed += checker.failed(r.pop("answers"))
        mismatches += r["footer"]["kernel_mismatch"]
        (traced if traced_round else untraced).append(r)
        setups.append(r["setup_s"])
        raw_setups.append(r["setup_raw_s"])
        walls.append(time.monotonic() - t0)
        left = seconds - (time.monotonic() - start)
        if left < statistics.median(walls) and (traced or not trace):
            break
    kernel = untraced[0]["header"]["kernel"]
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setups)
    return {
        "kernel": kernel,
        "layers": traced[0]["footer"]["trace"] if traced else None,
        "rounds": len(untraced) + len(traced),
        "ops": len(ops),
        "correct": not mismatches,
        "mismatches": mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "unscaled": unscaled(untraced, raw_setups),
    }


def report(workload: str, seed: int, trace: bool, res: dict) -> None:
    """Print the summary and the result line; keep a copy under perfbench/out/."""
    n = res["ops"]
    pct = 100 * (tail_index(n) + 1) / n
    print(f"# domkit benchmark: workload={workload} seed={seed} kernel={res['kernel']} "
          f"rounds={res['rounds']} ops/round={n} tail=p{pct:.1f}")
    for name, (value, unit) in res["metrics"].items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print("# as measured, before scaling by the reference solve:")
    for name, (value, unit) in res["unscaled"].items():
        print(f"# {name:<38} {value:>14.6g} {unit}")
    if res["mismatches"]:
        print(f"# compiled and pure kernels disagree on {res['mismatches']}")
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "kernel": res["kernel"],
                   "rounds": res["rounds"], "ops_per_round": n, "tail_percentile": pct,
                   "layers": res["layers"],
                   "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in res["unscaled"].items()},
                   **result}, f, indent=1)
    print(json.dumps(result))


# -- self-test --------------------------------------------------------------

CORRUPT = {
    "scan": lambda a: {**a, "ratio": [a["ratio"][0] + 1, a["ratio"][1]]},
    "gamma": lambda a: {**a, "gamma": a["gamma"] + 1},
    "circulant": lambda a: {**a, "witness": a["witness"][1:]},
    "family": lambda a: {**a, "residues": a["residues"][1:]},
}


def self_test() -> None:
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 13)
        steps = rng.sample(range(1, n), rng.randint(1, min(4, n - 1)))
        assert oracles.exact_gamma(n, steps) == oracles.brute_gamma(n, steps), (n, steps)
    assert oracles.closed_form_ratio(4, 8) == Fraction(2, 7)
    assert oracles.closed_form_ratio(4, 7) == Fraction(1, 4)
    table = gamma_table.load()
    for seed in (1, 2):
        assert all(gamma_table.key(n, s) in table for n, s in workloads.make_ops("gamma", seed))
    for workload in workloads.WORKLOADS:
        ops = workloads.make_ops(workload, 7, tiny=True)
        r = spawn(workload, 7, tiny=True, cross_check=True)
        checker = Checker(workload, ops)
        assert checker.failed(r["answers"]) == 0, f"{workload}: correct answers flagged"
        assert not r["footer"]["kernel_mismatch"]
        wrong = list(r["answers"])
        wrong[0] = json.dumps(CORRUPT[workload](json.loads(wrong[0])))
        wrong[1] = "{}"
        wrong[-1] = json.dumps({"error": "RuntimeError: raised"})
        assert checker.failed(wrong) == 3, f"{workload}: a wrong answer passed"
        t = spawn(workload, 7, tiny=True, trace=True)
        layers = per_layer([t], [r])
        assert layers["import.domkit_ms"][0] > 0, "no -X importtime output"
        print(f"{workload:<10} {len(ops)} tiny ops pass; corrupted, malformed and raised ones fail; "
              f"{len(layers)} per-layer metrics, kernel.nodes={layers['kernel.nodes'][0]}")
    print("self-test ok")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scan-jobs", type=int, default=1,
                    help="jobs passed to search_ratio (reference figures only; default 1)")
    ap.add_argument("--self-test", action="store_true", help="tiny inputs, checks the checks")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "domkit", "__init__.py")):
        print("error: src/domkit not found next to perfbench/", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            self_test()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scan_jobs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, bool(args.trace), res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
