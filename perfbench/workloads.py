"""Seeded inputs for the four benchmark workloads.

Standard library only: the parent process that checks answers never
imports domkit.  Every generator is a pure function of (workload, seed);
the random stream is splitmix64, so the inputs do not depend on the
Python version.  Sizes are stratified (each stratum gets the same number
of ops in every seed), which keeps the cost mix of a workload the same
from seed to seed while the seed still picks the instances.

An op is one tuple:

  scan       (d, s, cap)    search_ratio(family_set(d, s), cap, jobs=1)
  gamma      (n, steps)     gamma_exact(reduce_mod(DifferenceSet(steps), n))
  circulant  (n, d)         gamma_exact(reduce_mod(DifferenceSet(1..d-1), n))
  family     (d, s)         domination_ratio, construct_best, check_block_lemma
"""

from __future__ import annotations

import math

WORKLOADS = ("scan", "gamma", "circulant", "family")

MASK64 = (1 << 64) - 1

# scan: every family member with d in 3..5 and |s| <= 14 (78 members, all
# with construction period <= 30), each scanned to SCAN_CAP.  Members of one
# d share certificates (s and s' meet at period |s - s'|), so a scan's cost
# depends on which member scans a shared period first: reversing the order
# within each d moved the median scan's node count by 10%.  The seed
# therefore orders the three d-groups, and s ascends within a group, which
# gives every seed the same per-scan work.  Caps are not drawn from the
# seed either: one step of the cap doubles a scan's cost.
SCAN_DS = (3, 4, 5)
SCAN_S_MAX = 14
SCAN_CAP = 32

# gamma: a fixed pool of GAMMA_POOL[|S|] step sets per (n, |S|) stratum,
# no two isomorphic, drawn once from GAMMA_POOL_SEED (2-step sets have
# only 14 classes at n = 29).  Each seed runs the whole pool,
# every instance relabeled by a seed-chosen unit u of Z_n (steps -> u*steps
# mod n) and in a seed-chosen order.  x -> u*x is an isomorphism of the
# circulant, so gamma is unchanged and gamma_table.json (keyed by the
# canonical form under units) answers every seed, while the kernel sees
# different step sets and the cost mix stays the same.
GAMMA_NS = tuple(range(28, 32))
GAMMA_POOL = {2: 12, 3: 30, 4: 30}
GAMMA_POOL_SEED = 20220406

# circulant: the paper's circulants on Z_n with steps 1..d-1, where
# gamma = ceil(n/d); n is log-stratified over [CIRC_N_MIN, CIRC_N_MAX]
CIRC_DS = tuple(range(2, 9))
CIRC_N_MIN = 400
CIRC_N_MAX = 1600
CIRC_OPS = 56

# family: d cycles through 2..40, |s| is stratified over [1, FAMILY_S_MAX]
FAMILY_DS = tuple(range(2, 41))
FAMILY_S_MAX = 2000
FAMILY_PER_D = 100

SALT = {"scan": 1, "gamma": 2, "circulant": 3, "family": 4}


class SplitMix64:
    """splitmix64 (Steele, Lea, Flood 2014): small, fast, version-stable."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def unit(self) -> float:
        return (self.next() >> 11) / float(1 << 53)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _rng(workload: str, seed: int) -> SplitMix64:
    return SplitMix64(seed * 0x100000001B3 + SALT[workload])


def scan_members(s_max: int) -> list[tuple[int, int]]:
    return [
        (d, s)
        for d in SCAN_DS
        for s in range(-s_max, s_max + 1)
        if not 0 <= s <= d - 2
    ]


def gamma_pool() -> dict[tuple[int, int], list[tuple[int, ...]]]:
    """The fixed instance pool, stratum (n, k) -> GAMMA_POOL[k] step sets, no
    two of them isomorphic under x -> u*x."""
    rng = SplitMix64(GAMMA_POOL_SEED)
    pool = {}
    for n in GAMMA_NS:
        for k, size in GAMMA_POOL.items():
            classes = {}
            while len(classes) < size:
                residues = list(range(1, n))
                rng.shuffle(residues)
                steps = tuple(sorted(residues[:k]))
                classes.setdefault(canonical(n, steps), steps)
            pool[(n, k)] = list(classes.values())
    return pool


def canonical(n: int, steps) -> tuple[int, ...]:
    """Least sorted image of steps under x -> u*x, u a unit mod n."""
    return min(
        tuple(sorted(u * t % n for t in steps))
        for u in range(1, n)
        if math.gcd(u, n) == 1
    )


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[tuple]:
    """The op list of one run; tiny gives a few cheap ops for the self-test."""
    rng = _rng(workload, seed)
    if workload == "scan":
        groups = list(SCAN_DS)
        rng.shuffle(groups)
        members = scan_members(4 if tiny else SCAN_S_MAX)
        cap = 16 if tiny else SCAN_CAP
        return [(d, s, cap) for g in groups for d, s in members if d == g]
    if workload == "gamma":
        ops = []
        for (n, k), steps_list in gamma_pool().items():
            if tiny and n != GAMMA_NS[0]:
                continue
            units = [u for u in range(1, n) if math.gcd(u, n) == 1]
            for steps in steps_list[: 2 if tiny else None]:
                u = units[rng.below(len(units))]
                ops.append((n, tuple(sorted(u * t % n for t in steps))))
        rng.shuffle(ops)
        return ops
    if workload == "circulant":
        count = 6 if tiny else CIRC_OPS
        lo, hi = (40, 80) if tiny else (CIRC_N_MIN, CIRC_N_MAX)
        ops = []
        for i in range(count):
            u = (i + rng.unit()) / count
            n = round(lo * (hi / lo) ** u)
            ops.append((n, CIRC_DS[i % len(CIRC_DS)]))
        rng.shuffle(ops)
        return ops
    if workload == "family":
        per_d = 3 if tiny else FAMILY_PER_D
        s_max = 60 if tiny else FAMILY_S_MAX
        ops = []
        for d in FAMILY_DS:
            chosen = set()
            for j in range(per_d):
                while True:
                    u = (j + rng.unit()) / per_d
                    mag = 1 + int(u * s_max)
                    s = mag if rng.below(2) else -mag
                    if not 0 <= s <= d - 2 and (d, s) not in chosen:
                        break
                chosen.add((d, s))
                ops.append((d, s))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")
