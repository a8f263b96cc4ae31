import json
from fractions import Fraction

import pytest

import domkit.cli as cli
import domkit.solver as solver
from domkit.formula import domination_ratio
from domkit.model import parse_ratio


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


@pytest.mark.parametrize("bad", ["1,x", "0", "1,,2", ""])
def test_gamma_bad_set_exits_2(capsys, bad):
    code, _, err = run(capsys, "gamma", "--n", "5", "--set", bad)
    assert code == 2
    assert err != ""


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
    assert parse_ratio(payload["best_ratio"]) <= Fraction(2, 5)


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
        assert parse_ratio(ratio) == domination_ratio(4, int(s)).value


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
        assert parse_ratio(ratio) == domination_ratio(5, int(s)).value


def test_table_d4_checked(capsys):
    code, out, _ = run(capsys, "table", "--which", "d4", "--k-max", "2", "--check")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "family\tk\ts\tratio\tn\tgamma"
    for line in lines[1:]:
        family, k, s, ratio, n, gamma = line.split("\t")
        assert parse_ratio(ratio) == Fraction(int(gamma), int(n))


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


def test_exit_3_on_invalid_kernel_witness(capsys, monkeypatch):
    monkeypatch.setattr(solver, "_gamma_cache", {})
    monkeypatch.setattr(solver._kernel, "solve_cover", lambda n, offsets: (1, 1, 1))
    code, out, err = run(capsys, "gamma", "--n", "5", "--set", "1,2")
    assert code == 3
    assert out == ""
    assert "invalid witness" in err
    assert "Traceback" not in err


def test_repeat_invocations_byte_identical(capsys):
    first = run(capsys, "search", "--set", "1,2,8", "--max-period", "16")
    second = run(capsys, "search", "--set", "1,2,8", "--max-period", "16")
    assert first == second
    first = run(capsys, "table", "--which", "d5", "--k-max", "3")
    second = run(capsys, "table", "--which", "d5", "--k-max", "3")
    assert first == second
