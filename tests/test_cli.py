import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domkit.cli as cli
import domkit.solver as solver
from domkit.formula import domination_ratio
from domkit.model import PeriodicSet
from domkit.solver import GammaCertificate


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ratio_plain(capsys):
    code, out, err = run(capsys, "ratio", "--d", "4", "--s", "4", "--format", "plain")
    assert code == 0
    assert out == "1/3\n"
    assert err == ""


def test_ratio_json(capsys):
    code, out, _ = run(capsys, "ratio", "--d", "4", "--s", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == "1/3"
    assert payload["case"] == "CASE_E_EQ_1"
    assert payload["k"] == 1 and payload["e"] == 1


def test_ratio_modular_case(capsys):
    code, out, _ = run(capsys, "ratio", "--d", "4", "--s", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] == "1/4"
    assert payload["case"] == "EDS_MOD"
    assert "k" not in payload and "e" not in payload


def test_ratio_negative_s(capsys):
    code, out, _ = run(capsys, "ratio", "--d", "4", "--s", "-4")
    assert code == 0
    assert json.loads(out)["ratio"] == "2/7"


def test_ratio_degenerate_exits_2(capsys):
    code, out, err = run(capsys, "ratio", "--d", "4", "--s", "2")
    assert code == 2
    assert out == ""
    assert "degenerate" in err


def test_construct_example(capsys):
    code, out, _ = run(capsys, "construct", "--d", "3", "--s", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 5
    assert payload["residues"] == [0, 3]
    assert payload["density"] == "2/5"


def test_construct_verified(capsys):
    code, out, _ = run(capsys, "construct", "--d", "4", "--s", "8", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 14
    assert payload["verified"] is True
    assert payload["block_lemma"] is True


def test_construct_template_within_limit(capsys):
    # the longest template at (3, 600001) has period 1200001, the emitted one 600002
    code, out, err = run(capsys, "construct", "--d", "3", "--s", "600001")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["period"] == 600002
    assert len(payload["residues"]) == 200001


def test_construct_modular_d2(capsys):
    code, out, _ = run(capsys, "construct", "--d", "2", "--s", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 2
    assert payload["residues"] == [0]
    assert payload["density"] == "1/2"


def test_gamma_example(capsys):
    code, out, _ = run(capsys, "gamma", "--n", "14", "--set", "1,2,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 4
    assert len(payload["witness"]) == 4
    assert payload["explored"] >= 1


def test_gamma_oracle(capsys):
    code, out, _ = run(capsys, "gamma", "--n", "5", "--set", "1,2", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 2
    assert payload["oracle"] == 2
    assert payload["oracle_agrees"] is True


def test_gamma_bad_modulus_exits_2(capsys):
    code, _, err = run(capsys, "gamma", "--n", "0", "--set", "1")
    assert code == 2
    assert err != ""


def test_gamma_oracle_size_limit_exits_2(capsys):
    code, _, err = run(capsys, "gamma", "--n", "30", "--set", "1,2", "--oracle")
    assert code == 2
    assert "oracle size limit" in err


def test_gamma_oracle_size_limit_exits_2_before_solving(capsys, monkeypatch):
    def refuse(inst):
        raise AssertionError("gamma_exact ran before the oracle's size check")

    monkeypatch.setattr(cli, "gamma_exact", refuse)
    code, out, err = run(capsys, "gamma", "--n", "1000", "--set", "1,2,7", "--oracle")
    assert (code, out, err) == (2, "", "error: oracle size limit\n")


@pytest.mark.parametrize("bad", ["1,x", "0", "1,,2", ""])
def test_gamma_bad_set_exits_2(capsys, bad):
    code, _, err = run(capsys, "gamma", "--n", "5", "--set", bad)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("argv", [["gamma", "--n", "14"], ["search", "--max-period", "8"]])
def test_set_starting_with_minus(capsys, argv):
    # "-7,3,5" is not a plain negative number, so argparse alone would
    # take it for an option and exit 2
    code, out, err = run(capsys, *argv, "--set", "-7,3,5")
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--set=-7,3,5") == (0, out, "")


def test_search_example(capsys):
    code, out, _ = run(capsys, "search", "--set", "1,4", "--max-period", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_ratio"] == "2/5"
    assert payload["best_period"] == 5
    assert payload["cap"] == 10
    assert len(payload["per_period"]) == 10
    assert payload["best_witness"]["period"] == 5


def test_search_upper_bound_only(capsys):
    code, out, _ = run(capsys, "search", "--set", "1,4,9", "--max-period", "12")
    assert code == 0
    payload = json.loads(out)
    # a superset of {1,4} cannot do worse than 2/5 at the same or larger cap
    assert Fraction(payload["best_ratio"]) <= Fraction(2, 5)


def test_search_normalize(capsys):
    code, out, _ = run(capsys, "search", "--set", "3,12", "--max-period", "20", "--normalize")
    assert code == 0
    payload = json.loads(out)
    assert payload["original_set"] == [3, 12]
    assert payload["set"] == [1, 4]
    assert payload["best_ratio"] == "2/5"
    assert payload["best_period"] == 5


def test_table_d4(capsys):
    code, out, _ = run(capsys, "table", "--which", "d4", "--k-max", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family\tk\ts\tratio"
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 18
    by_key = {(r[0], int(r[1])): r for r in rows}
    assert by_key[("s=4k", 1)][2:] == ["4", "1/3"]
    assert by_key[("s=4k", 3)][2:] == ["12", "3/11"]
    assert by_key[("s=-4k", 2)][2:] == ["-8", "3/11"]
    for family, k, s, ratio in rows:
        assert Fraction(ratio) == domination_ratio(4, int(s)).value


def test_table_d5(capsys):
    code, out, _ = run(capsys, "table", "--which", "d5", "--k-max", "2")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [line.split("\t") for line in lines[1:]]
    # 4 special rows, 4 forms starting at k=2, 4 forms covering k=1..2
    assert len(rows) == 16
    specials = [r for r in rows if r[0] == "special"]
    assert sorted(int(r[2]) for r in specials) == [-3, -2, 5, 6]
    assert all(r[3] == "1/4" for r in specials)
    assert ["s=5k", "2", "10", "4/17"] in rows
    for family, k, s, ratio in rows:
        assert Fraction(ratio) == domination_ratio(5, int(s)).value


def test_table_d4_checked(capsys):
    code, out, _ = run(capsys, "table", "--which", "d4", "--k-max", "2", "--check")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family\tk\ts\tratio\tn\tgamma"
    for line in lines[1:]:
        family, k, s, ratio, n, gamma = line.split("\t")
        assert Fraction(ratio) == Fraction(int(gamma), int(n))


def test_table_circulant_checked(capsys):
    code, out, _ = run(capsys, "table", "--which", "circulant", "--k-max", "3", "--check")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kind\td\tk\te\tn\tset\tgamma\tconfirmed"
    rows = [line.split("\t") for line in lines[1:]]
    assert ["A", "3", "1", "2", "5", "1,2", "2", "2"] in rows
    assert ["B", "3", "1", "-", "5", "1,3", "2", "2"] in rows
    for row in rows:
        assert row[7] == row[6]


def test_exit_3_on_internal_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gamma_bruteforce", lambda inst: 99)
    code, out, err = run(capsys, "gamma", "--n", "5", "--set", "1,2", "--oracle")
    assert code == 3
    assert "internal consistency failure" in err
    # the payload still lands on stdout for postmortems
    assert json.loads(out)["oracle_agrees"] is False


def test_construct_verify_exits_3_on_non_dominating_set(capsys, monkeypatch):
    # the block lemma is defined only on dominating sets, so it must not run
    bad = (PeriodicSet(14, frozenset({0})), domination_ratio(4, 8))
    monkeypatch.setattr(cli, "construct_best", lambda d, s: bad)
    code, out, err = run(capsys, "construct", "--d", "4", "--s", "8", "--verify")
    assert code == 3
    assert "internal consistency failure" in err
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["block_lemma"] is False


@pytest.mark.parametrize("which", ["d4", "circulant"])
def test_table_check_exits_3_on_wrong_gamma(capsys, monkeypatch, which):
    gamma_exact = cli.gamma_exact

    def wrong_gamma(inst):
        cert = gamma_exact(inst)
        return GammaCertificate(cert.gamma + 1, cert.witness, cert.explored)

    monkeypatch.setattr(cli, "gamma_exact", wrong_gamma)
    code, _, err = run(capsys, "table", "--which", which, "--k-max", "2", "--check")
    assert code == 3
    assert "internal consistency failure: gamma(Z_" in err


# gamma solves through gamma_exact, search through gamma_shared: both
# certify the kernel's witness on the same path
KERNEL_FAULT_ARGV = [
    ("gamma", "--n", "5", "--set", "1,2"),
    ("search", "--set", "1,2", "--max-period", "8"),
]


def test_exit_3_on_invalid_kernel_witness(capsys, monkeypatch, empty_caches):
    # {0} covers Z_n with offsets {0, 1, 2} up to n = 3, and no further
    monkeypatch.setattr(solver._kernel, "solve_cover", lambda n, offsets, lb=0: (1, 1, 1))
    for argv in KERNEL_FAULT_ARGV:
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "invalid witness" in err
        assert "Traceback" not in err


def test_exit_3_on_kernel_size_not_its_popcount(capsys, monkeypatch, empty_caches):
    # the full mask covers Z_5, but it holds 5 vertices, not the 2 reported
    monkeypatch.setattr(solver._kernel, "solve_cover", lambda n, offsets, lb=0: (2, 0b11111, 1))
    code, out, err = run(capsys, "gamma", "--n", "5", "--set", "1,2")
    assert code == 3
    assert out == ""
    assert "invalid witness" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shift", [1, -1], ids=["up", "down"])
def test_exit_3_on_faulty_residue_table(capsys, monkeypatch, empty_caches, shift):
    # a decode through a shifted table yields a residue outside [0, n):
    # n itself, which the re-encoding cannot write, or -1, which it would
    # write as n - 1.  Z_5 with steps {5}, offsets {0}, has the full mask
    # as its one cover, which a shift by one only rotates
    table = tuple(range(shift, shift + solver.MAX_MODULUS))
    monkeypatch.setattr(solver, "_residues", table)
    for argv in [*KERNEL_FAULT_ARGV, ("gamma", "--n", "5", "--set", "5")]:
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "invalid witness" in err
        assert "Traceback" not in err


# a kernel fault run in a fresh interpreter under a timeout: a check that
# decoded the mask first would loop forever on a negative one
FAULTY_KERNEL = """
import sys
sys.path.insert(0, sys.argv[1])
from domkit import cli, solver
size, mask = {size}, {mask}
solver._kernel.solve_cover = lambda n, offsets, lb=0: (size, mask, 1)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "size, mask", [(2, 1 | 1 << 5), (1, -1)], ids=["bit-at-n", "negative"]
)
def test_exit_3_on_kernel_mask_outside_modulus(size, mask):
    src = Path(__file__).resolve().parents[1] / "src"
    code = FAULTY_KERNEL.format(size=size, mask=mask)
    for argv in KERNEL_FAULT_ARGV:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(src), *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 3, (argv, proc.stderr)
        assert proc.stdout == ""
        assert "internal consistency failure" in proc.stderr
        assert "Traceback" not in proc.stderr


def run_closing_stdout(argv, lines):
    """(exit code, stderr) of domkit in a fresh interpreter, whose stdout is
    block-buffered as -I ignores PYTHONUNBUFFERED; the reader takes `lines`
    lines and closes the pipe, with 0 before domkit starts."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "from domkit.cli import main; sys.exit(main())"
    )
    read_end, write_end = os.pipe()
    reader = open(read_end, "rb")
    if not lines:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-c", code, *argv], stdout=write_end, stderr=subprocess.PIPE
    )
    os.close(write_end)
    for _ in range(lines):
        reader.readline()
    reader.close()
    err = proc.communicate(timeout=60)[1].decode()
    return proc.returncode, err


@pytest.mark.parametrize(
    "argv, lines",
    [
        # one short line, written by the flush at the end
        (("ratio", "--d", "4", "--s", "4"), 0),
        # ~360 KB, written while the reader is gone
        (("table", "--which", "d4", "--k-max", "3000"), 1),
    ],
    ids=["at-exit", "mid-output"],
)
def test_closed_stdout_exits_quietly(argv, lines):
    code, err = run_closing_stdout(argv, lines)
    assert code == cli.EXIT_BROKEN_PIPE
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_repeat_invocations_byte_identical(capsys):
    first = run(capsys, "search", "--set", "1,2,8", "--max-period", "16")
    second = run(capsys, "search", "--set", "1,2,8", "--max-period", "16")
    assert first == second
    first = run(capsys, "table", "--which", "d5", "--k-max", "3")
    second = run(capsys, "table", "--which", "d5", "--k-max", "3")
    assert first == second


GOLDEN = Path(__file__).resolve().parent / "golden"


# the runs that reach the kernel
GOLDEN_SOLVES = [
    # a 151,050-node search and a 44,056-node one: explored is pinned
    (("gamma", "--n", "30", "--set", "14,15"), "gamma_n30_set14_15.out"),
    (("gamma", "--n", "46", "--set", "1,4"), "gamma_n46_set1_4.out"),
    (("search", "--set", "1,4", "--max-period", "48"), "search_set1_4_max48.out"),
    # a scan with no floor, and a family member's (d = 4) with one
    (("search", "--set", "2,7", "--max-period", "24"), "search_set2_7_max24.out"),
    (("search", "--set", "1,2,-14", "--max-period", "32"), "search_set1_2_-14_max32.out"),
    # searches that stop at the root, so the greedy's own cover is the
    # witness; each greedy covers a remainder after its first phase
    (("gamma", "--n", "1597", "--set", "1,2,3,4,5,6,7"), "gamma_n1597_set1_2_3_4_5_6_7.out"),
    (("gamma", "--n", "1602", "--set", "1,2,3"), "gamma_n1602_set1_2_3.out"),
    # the greedy's window run jumps whole periods: one pick a period of 3
    # that ends in phase 2 at the root, and two a period of 8 with a
    # 6,670-node search whose node count the greedy's size sets
    (("gamma", "--n", "8191", "--set", "1,2"), "gamma_n8191_set1_2.out"),
    (("gamma", "--n", "4002", "--set", "1,5"), "gamma_n4002_set1_5.out"),
    # a scan whose largest periods the pure kernel's memo replays
    (("search", "--set", "1,4", "--max-period", "64"), "search_set1_4_max64.out"),
]

# one construct --verify per RatioCase
GOLDEN_BUILDS = [
    (("construct", "--d", "3", "--s", "4", "--verify"), "construct_d3_s4.out"),
    (("construct", "--d", "3", "--s", "-14", "--verify"), "construct_d3_s-14.out"),
    (("construct", "--d", "6", "--s", "8", "--verify"), "construct_d6_s8.out"),
    (("construct", "--d", "4", "--s", "7", "--verify"), "construct_d4_s7.out"),
]


# test ids are argvN by list position: the solves added after the builds
# come after them, so that every earlier run keeps its id
@pytest.mark.parametrize("argv, name", GOLDEN_SOLVES[:3] + GOLDEN_BUILDS + GOLDEN_SOLVES[3:])
def test_stdout_matches_golden_bytes(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("argv, name", GOLDEN_SOLVES)
def test_compiled_kernel_matches_golden_bytes(capsys, monkeypatch, empty_caches, core_c, argv, name):
    # the kernels walk the same tree, so the compiled one prints the same
    # explored counts; the empty cache makes the scan solve every period
    if core_c is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(solver, "_kernel", core_c)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


# runs every golden case in one interpreter, standard library only, and
# prints [exit code, stdout] per case as JSON
GOLDEN_DRIVER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from domkit.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


# pyproject.toml says requires-python >= 3.10; the suite itself runs on one
@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_golden_bytes_on_other_interpreters(python):
    exe = shutil.which(python)
    probe = exe and subprocess.run([exe, "-I", "-S", "-c", ""], capture_output=True)
    if not probe or probe.returncode:
        pytest.skip(f"no {python} on PATH")
    cases = GOLDEN_SOLVES + GOLDEN_BUILDS
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [exe, "-I", "-S", "-c", GOLDEN_DRIVER, str(src), json.dumps([argv for argv, _ in cases])],
        capture_output=True,
        check=True,
        timeout=300,
    )
    assert proc.stderr == b""
    results = json.loads(proc.stdout)
    for (argv, name), (code, out) in zip(cases, results, strict=True):
        assert code == 0, argv
        assert out.encode() == (GOLDEN / name).read_bytes(), argv


HUGE = 99999999999999999999


@pytest.mark.parametrize(
    "steps, bound",
    [
        ("1,4", "c*2^c = 64 (c = 4,"),
        ("1,20000", "c*2^c (c = 20000,"),
        (f"1,{HUGE}", f"c*2^c (c = {HUGE},"),
    ],
)
def test_search_cap_note_any_span(capsys, steps, bound):
    # the decimal of c*2^c passes Python's 4300-digit str limit at c = 14271
    code, out, err = run(capsys, "search", "--set", steps, "--max-period", "3")
    assert code == 0, err
    assert f"period at most {bound} span" in json.loads(out)["theoretical_cap_note"]


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--n", "100000", "--set", "1,2"),
        ("search", "--set", "1,2", "--max-period", str(HUGE)),
        ("construct", "--d", "3", "--s", str(HUGE)),
        ("construct", "--d", str(HUGE), "--s", "-1"),
        ("construct", "--d", "3", "--s", "1048576"),  # (3^349525, 2): period 2^20 + 1
    ],
)
def test_size_guards_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "limit" in err


def _ints(lo, hi):
    return st.integers(lo, hi) | st.sampled_from([HUGE, -HUGE])


_step_sets = st.lists(_ints(-60, 60), max_size=4).map(lambda xs: ",".join(map(str, xs))) | st.sampled_from(
    ["x", "1,,2", " "]
)
_flag = st.booleans()
_argvs = st.one_of(
    st.tuples(_ints(-4, 40), _ints(-60, 60), st.sampled_from([[], ["--format", "plain"]])).map(
        lambda a: ["ratio", "--d", str(a[0]), "--s", str(a[1]), *a[2]]
    ),
    st.tuples(_ints(-4, 40), _ints(-60, 60), _flag).map(
        lambda a: ["construct", "--d", str(a[0]), "--s", str(a[1])] + ["--verify"] * a[2]
    ),
    st.tuples(_ints(-2, 40), _step_sets).map(lambda a: ["gamma", "--n", str(a[0]), "--set", a[1]]),
    # the brute-force oracle is exponential: keep it below 13 or above its 24 cap
    st.tuples(st.integers(-2, 12) | st.integers(25, 40), _step_sets).map(
        lambda a: ["gamma", "--n", str(a[0]), "--set", a[1], "--oracle"]
    ),
    st.tuples(_step_sets, _ints(-1, 12), _flag).map(
        lambda a: ["search", "--set", a[0], "--max-period", str(a[1])] + ["--normalize"] * a[2]
    ),
    st.tuples(st.sampled_from(["d4", "d5", "circulant"]), st.integers(-1, 3), _flag).map(
        lambda a: ["table", "--which", a[0], "--k-max", str(a[1])] + ["--check"] * a[2]
    ),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_argvs)
def test_cli_fuzz_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
