import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from domkit import search, solver
from domkit.construct import verify_dominating
from domkit.formula import RatioResult, domination_ratio, family_set
from domkit.model import ConsistencyError, DifferenceSet, PeriodicSet
from domkit.search import consistency_check, search_ratio
from domkit.solver import gamma_exact, reduce_mod


@pytest.mark.parametrize(
    "steps, cap, ratio, period",
    [
        ((1, 4), 10, Fraction(2, 5), 5),
        ((1, 2, 8), 20, Fraction(2, 7), 14),
        ((3,), 8, Fraction(1, 2), 2),
    ],
)
def test_search_ratio_examples(steps, cap, ratio, period):
    report = search_ratio(DifferenceSet(steps), cap)
    assert report.best_ratio == ratio
    assert report.best_period == period
    assert report.cap == cap


def test_search_report_internals():
    steps = DifferenceSet((1, 4))
    report = search_ratio(steps, 12)
    assert len(report.per_period) == 12
    for p, g, ratio in report.per_period:
        assert ratio == Fraction(g, p)
        assert g == gamma_exact(reduce_mod(steps, p)).gamma
    assert report.best_ratio == min(r for _, _, r in report.per_period)
    # ties break toward the smallest period
    tied = [p for p, _, r in report.per_period if r == report.best_ratio]
    assert report.best_period == min(tied)
    assert verify_dominating(report.best_witness, steps)
    assert report.best_witness.period == report.best_period
    assert "never scanned" in report.theoretical_cap_note


@pytest.mark.parametrize("d, s", [(3, -14), (4, -3), (5, -14), (2, 5), (4, 7), (3, 13)])
def test_search_ratio_matches_gamma_exact_reference(monkeypatch, empty_caches, d, s):
    # x -> (d - 2) - x maps family_set(d, s) onto family_set(d, d - 2 - s),
    # so the mirror, scanned second, shares gamma at every period.  The
    # scan stops the kernel at the floor ceil(p * rho); gamma_exact has no
    # floor, and both must give the same gamma and witness
    cap = 32
    members = (s, d - 2 - s)
    reports = [search_ratio(family_set(d, members[0]), cap)]
    solved = []
    solve_cover = solver._kernel.solve_cover

    def counted(n, offsets, lb=0):
        solved.append(n)
        return solve_cover(n, offsets, lb)

    monkeypatch.setattr(solver._kernel, "solve_cover", counted)
    reports.append(search_ratio(family_set(d, members[1]), cap))
    # the kernel runs once, for the witness at the mirror's best period
    assert solved == [reports[1].best_period]
    for member, report in zip(members, reports):
        empty_caches()
        steps = family_set(d, member)
        certs = {p: gamma_exact(reduce_mod(steps, p)) for p in range(1, cap + 1)}
        per_period = tuple((p, c.gamma, Fraction(c.gamma, p)) for p, c in certs.items())
        best_p = min(per_period, key=lambda row: (row[2], row[0]))[0]
        assert report.per_period == per_period
        assert report.best_witness == PeriodicSet(best_p, certs[best_p].witness)


def test_search_ratio_rejects_a_wrong_shared_gamma(empty_caches):
    # a class gamma below gamma(Z_5, {0, 1, 4}) = 2 makes period 5 the best;
    # the witness solve there, for {0, 1, 4} itself, finds 2
    solver._gamma_cache[(5, (0, 1, 2))] = 1
    with pytest.raises(ConsistencyError, match="period 5"):
        search_ratio(DifferenceSet((1, 4)), 8)


def test_search_ratio_rejects_a_planted_wrong_ratio(monkeypatch, empty_caches):
    # rho = 1 makes the floor at period p equal to p; Z_2 with steps {1, 4}
    # has gamma 1, below the floor 2
    monkeypatch.setattr(search, "_family_ratio", lambda steps: Fraction(1))
    with pytest.raises(ConsistencyError, match="period 2: gamma 1 is below the floor 2"):
        search_ratio(family_set(3, 4), 8)


def test_family_ratio_recognises_family_shapes_only():
    for d, s in [(2, 5), (2, -1), (3, 4), (3, -14), (4, 7), (5, -3)]:
        assert search._family_ratio(family_set(d, s)) == domination_ratio(d, s).value
    for steps in [(2, 5), (1, 3, 5), (-1, -4), (1, 2, 4, 5), (2, 3)]:
        assert search._family_ratio(DifferenceSet(steps)) is None


def test_search_ratio_passes_the_floor_to_the_kernel(monkeypatch, empty_caches):
    # ceil(p * 2/5) for {1, 4}; no floor for a step set outside the family
    floors = []
    solve_cover = solver._kernel.solve_cover

    def recorded(n, offsets, lb=0):
        floors.append((n, lb))
        return solve_cover(n, offsets, lb)

    monkeypatch.setattr(solver._kernel, "solve_cover", recorded)
    # then the best period again for its witness, with the same floor
    assert search_ratio(family_set(3, 4), 12).best_period == 5
    assert floors == [(p, -(-2 * p // 5)) for p in range(1, 13)] + [(5, 2)]
    floors.clear()
    empty_caches()  # {2, 5} shares classes with {1, 4} at small periods
    best = search_ratio(DifferenceSet((2, 5)), 12).best_period
    assert floors == [(p, 0) for p in range(1, 13)] + [(best, 0)]


def test_search_ratio_at_most_one():
    # period 1 with witness {0} always dominates
    for steps in [(2,), (-7,), (5, 11), (1, 2, 3)]:
        report = search_ratio(DifferenceSet(steps), 6)
        assert report.best_ratio <= 1


def test_search_rejects_bad_cap():
    with pytest.raises(ValueError):
        search_ratio(DifferenceSet((1, 4)), 0)


def test_search_subset_monotonicity():
    rng = random.Random(112358)
    for _ in range(25):
        pool = [x for x in range(-9, 10) if x != 0]
        small = rng.sample(pool, rng.randint(1, 2))
        extra = [x for x in pool if x not in small]
        big = small + rng.sample(extra, rng.randint(1, 2))
        cap = rng.randint(4, 10)
        r_small = search_ratio(DifferenceSet(tuple(small)), cap).best_ratio
        r_big = search_ratio(DifferenceSet(tuple(big)), cap).best_ratio
        assert r_big <= r_small


def test_search_negation_invariance():
    rng = random.Random(272727)
    for _ in range(15):
        pool = [x for x in range(-8, 9) if x != 0]
        steps = rng.sample(pool, rng.randint(1, 3))
        cap = rng.randint(3, 9)
        pos = search_ratio(DifferenceSet(tuple(steps)), cap)
        neg = search_ratio(DifferenceSet(tuple(-x for x in steps)), cap)
        assert pos.best_ratio == neg.best_ratio
        assert pos.best_period == neg.best_period


def test_search_scale_invariance():
    # gamma of the scaled set at a scaled period matches c copies of the original
    rng = random.Random(161803)
    for _ in range(12):
        pool = [x for x in range(-6, 7) if x != 0]
        steps = tuple(rng.sample(pool, rng.randint(1, 2)))
        c = rng.randint(2, 3)
        p = rng.randint(1, 8)
        g = gamma_exact(reduce_mod(DifferenceSet(steps), p)).gamma
        g_scaled = gamma_exact(
            reduce_mod(DifferenceSet(tuple(c * x for x in steps)), c * p)
        ).gamma
        assert g_scaled == c * g


def test_search_jobs_must_be_one():
    steps = DifferenceSet((1, 2, 8))
    assert search_ratio(steps, 16, jobs=1) == search_ratio(steps, 16)
    with pytest.raises(ValueError, match="jobs"):
        search_ratio(steps, 16, jobs=2)


def test_import_loads_no_process_pool():
    # a process pool would pull in the concurrent package and multiprocessing
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import domkit; "
        "print(sorted({'concurrent', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize(
    "d, s, cap, attained_at",
    [
        (3, 4, 20, 5),
        (4, 8, 20, 14),
        (5, 6, 20, 4),
    ],
)
def test_consistency_check_examples(d, s, cap, attained_at):
    report = consistency_check(d, s, cap)
    assert report.consistent
    assert report.violations == ()
    assert report.attained_at_construction
    assert report.constructed.period == attained_at
    assert report.search.best_ratio == report.formula.value
    assert report.formula.value == domination_ratio(d, s).value


def test_consistency_check_example_ratio():
    assert consistency_check(5, 6, 20).formula.value == Fraction(1, 4)


def test_consistency_check_reports_violations(monkeypatch):
    # a formula 1/100 above the true 2/7 is beaten by the scan at period 14
    construct_best = search.construct_best

    def raised_ratio(d, s):
        pset, result = construct_best(d, s)
        raised = RatioResult(result.value + Fraction(1, 100), result.case, result.decomposition)
        return pset, raised

    monkeypatch.setattr(search, "construct_best", raised_ratio)
    report = consistency_check(4, 8, 20)
    assert not report.consistent
    assert not report.attained_at_construction
    assert report.violations == (
        "scan minimum 2/7 != formula 207/700",
        "period 14 beats the formula: 4/14",
        "constructed period 14 does not attain the formula",
    )


def test_consistency_cap_too_small():
    # (4, 8) constructs period 14, so a cap of 10 cannot cover it
    with pytest.raises(ValueError, match="cap too small"):
        consistency_check(4, 8, 10)
