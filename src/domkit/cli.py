"""Command-line surface: ratio, construct, gamma, search, table.

JSON on stdout is the stable contract (rationals as "num/den" strings);
ratio also offers a plain mode and table emits TSV.  Exit codes: 0 on
success, 2 on a usage or domain error, 3 when an internal cross-check
fails, which would mean a bug, not bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .construct import check_block_lemma, construct_best, verify_dominating
from .formula import domination_ratio, family_set, normalize
from .model import ConsistencyError, DifferenceSet, density, format_ratio
from .search import search_ratio
from .solver import gamma_bruteforce, gamma_exact, reduce_mod

# solver-confirmation cap for table --check; larger rows print "-"
CHECK_PERIOD_CAP = 64


def _parse_set(text: str) -> DifferenceSet:
    try:
        elements = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad step set {text!r}; expected comma-separated integers")
    return DifferenceSet(elements)


def cmd_ratio(args) -> int:
    result = domination_ratio(args.d, args.s)
    if args.format == "plain":
        print(format_ratio(result.value))
        return 0
    payload = {
        "d": args.d,
        "s": args.s,
        "ratio": format_ratio(result.value),
        "case": result.case.value,
    }
    if result.decomposition is not None:
        payload["k"] = result.decomposition.k
        payload["e"] = result.decomposition.e
    print(json.dumps(payload))
    return 0


def cmd_construct(args) -> int:
    pset, result = construct_best(args.d, args.s)
    payload = {
        "d": args.d,
        "s": args.s,
        "period": pset.period,
        "residues": sorted(pset.residues),
        "density": format_ratio(density(pset)),
        "case": result.case.value,
    }
    if args.verify:
        steps = family_set(args.d, args.s)
        verified = verify_dominating(pset, steps)
        lemma = check_block_lemma(pset, args.d, args.s)
        payload["verified"] = verified
        payload["block_lemma"] = lemma
        if not (verified and lemma):
            print(json.dumps(payload))
            raise ConsistencyError(f"construction failed checks for ({args.d}, {args.s})")
    print(json.dumps(payload))
    return 0


def cmd_gamma(args) -> int:
    steps = _parse_set(args.set)
    inst = reduce_mod(steps, args.n)
    cert = gamma_exact(inst)
    payload = {
        "n": args.n,
        "set": list(steps.elements),
        "gamma": cert.gamma,
        "witness": sorted(cert.witness),
        "explored": cert.explored,
    }
    if args.oracle:
        oracle = gamma_bruteforce(inst)
        payload["oracle"] = oracle
        payload["oracle_agrees"] = oracle == cert.gamma
        if oracle != cert.gamma:
            print(json.dumps(payload))
            raise ConsistencyError(f"oracle disagrees on n={args.n}")
    print(json.dumps(payload))
    return 0


def cmd_search(args) -> int:
    steps = _parse_set(args.set)
    payload = {}
    if args.normalize:
        payload["original_set"] = list(steps.elements)
        steps = normalize(steps)
    report = search_ratio(steps, args.max_period)
    payload.update(
        {
            "set": list(steps.elements),
            "best_ratio": format_ratio(report.best_ratio),
            "best_period": report.best_period,
            "best_witness": report.best_witness.to_json(),
            "per_period": [
                {"p": p, "gamma": g, "ratio": format_ratio(r)}
                for p, g, r in report.per_period
            ],
            "cap": report.cap,
            "theoretical_cap_note": report.theoretical_cap_note,
        }
    )
    print(json.dumps(payload))
    return 0


def _confirm(steps: DifferenceSet, n: int, expected: int) -> str:
    """Solver confirmation cell for a table row: gamma(Z_n, steps), or "-"
    above CHECK_PERIOD_CAP."""
    if n > CHECK_PERIOD_CAP:
        return "-"
    cert = gamma_exact(reduce_mod(steps, n))
    if cert.gamma != expected:
        raise ConsistencyError(
            f"gamma(Z_{n}, {set(steps.elements)}) = {cert.gamma}, expected {expected}"
        )
    return str(cert.gamma)


def _family_rows(d: int, forms, k_max: int):
    """Rows (family, k, s, num, den) for one closed-form table."""
    for label, s_of_k, num_of_k, den_of_k, k_min in forms:
        for k in range(k_min, k_max + 1):
            yield label, k, s_of_k(k), num_of_k(k), den_of_k(k)


D4_FORMS = [
    ("s=4k", lambda k: 4 * k, lambda k: 2 * k, lambda k: 8 * k - 2, 1),
    ("s=-4k+2", lambda k: -4 * k + 2, lambda k: 2 * k, lambda k: 8 * k - 2, 1),
    ("s=4k+1", lambda k: 4 * k + 1, lambda k: k + 1, lambda k: 4 * k + 2, 1),
    ("s=-4k+1", lambda k: -4 * k + 1, lambda k: k + 1, lambda k: 4 * k + 2, 1),
    ("s=4k+2", lambda k: 4 * k + 2, lambda k: k + 1, lambda k: 4 * k + 3, 1),
    ("s=-4k", lambda k: -4 * k, lambda k: k + 1, lambda k: 4 * k + 3, 1),
]

D5_FORMS = [
    ("s=5k", lambda k: 5 * k, lambda k: 2 * k, lambda k: 10 * k - 3, 2),
    ("s=-5k+3", lambda k: -5 * k + 3, lambda k: 2 * k, lambda k: 10 * k - 3, 2),
    ("s=5k+1", lambda k: 5 * k + 1, lambda k: k + 1, lambda k: 5 * k + 2, 2),
    ("s=-5k+2", lambda k: -5 * k + 2, lambda k: k + 1, lambda k: 5 * k + 2, 2),
    ("s=5k+2", lambda k: 5 * k + 2, lambda k: k + 1, lambda k: 5 * k + 3, 1),
    ("s=-5k+1", lambda k: -5 * k + 1, lambda k: k + 1, lambda k: 5 * k + 3, 1),
    ("s=5k+3", lambda k: 5 * k + 3, lambda k: k + 1, lambda k: 5 * k + 4, 1),
    ("s=-5k", lambda k: -5 * k, lambda k: k + 1, lambda k: 5 * k + 4, 1),
]

# ratio 1/4 cases falling outside the k ranges above, attained at period 4
D5_SPECIALS = [(-3, 1, 4), (-2, 1, 4), (5, 1, 4), (6, 1, 4)]


def _emit_closed_form_table(d: int, forms, specials, args) -> None:
    header = ["family", "k", "s", "ratio"]
    if args.check:
        header += ["n", "gamma"]
    print("\t".join(header))
    if specials:
        for s, num, den in specials:
            _emit_form_row(d, "special", 1, s, num, den, args)
    for label, k, s, num, den in _family_rows(d, forms, args.k_max):
        _emit_form_row(d, label, k, s, num, den, args)


def _emit_form_row(d, label, k, s, num, den, args) -> None:
    value = domination_ratio(d, s).value
    if value != Fraction(num, den):
        raise ConsistencyError(f"table value {num}/{den} != formula for (d={d}, s={s})")
    row = [label, str(k), str(s), format_ratio(value)]
    if args.check:
        row.append(str(den))
        row.append(_confirm(family_set(d, s), den, num))
    print("\t".join(row))


def _emit_circulant_table(args) -> None:
    header = ["kind", "d", "k", "e", "n", "set", "gamma"]
    if args.check:
        header.append("confirmed")
    print("\t".join(header))
    for d in (3, 4, 5):
        for k in range(1, args.k_max + 1):
            for e in range(2, d):
                if d > k + e + 1:
                    continue
                n = d * k + e
                conn = tuple(range(1, d))
                _emit_circulant_row("A", d, k, str(e), n, conn, k + 1, args)
            if d <= 2 * k + 2:
                n = 2 * d * k - d + 2
                conn = tuple(range(1, d - 1)) + (d * k,)
                _emit_circulant_row("B", d, k, "-", n, conn, 2 * k, args)


def _emit_circulant_row(kind, d, k, e, n, conn, gamma, args) -> None:
    row = [kind, str(d), str(k), e, str(n), ",".join(map(str, conn)), str(gamma)]
    if args.check:
        row.append(_confirm(DifferenceSet(conn), n, gamma))
    print("\t".join(row))


def cmd_table(args) -> int:
    if args.which == "d4":
        _emit_closed_form_table(4, D4_FORMS, [], args)
    elif args.which == "d5":
        _emit_closed_form_table(5, D5_FORMS, D5_SPECIALS, args)
    else:
        _emit_circulant_table(args)
    return 0


def _attach_set_values(argv: list[str]) -> list[str]:
    """argparse reads "--set -7,3" as an option without a value, since
    "-7,3" is not a plain negative number; pass it on as "--set=-7,3"."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--set" and re.match(r"-\d", arg):
            out[-1] = "--set=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domkit",
        description="Exact domination toolkit for integer distance digraphs "
        "with steps {1,...,d-2,s} and for circulant digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="closed-form domination ratio")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("construct", help="optimal periodic dominating set")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="re-verify and check block sizes")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gamma", help="exact circulant domination number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated steps, e.g. 1,2,8")
    p.add_argument("--oracle", action="store_true", help="cross-check brute force (n <= 24)")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("search", help="scan periods for the best certified ratio")
    p.add_argument("--set", required=True, help="comma-separated steps, e.g. 1,4")
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--normalize", action="store_true", help="canonicalize the set first")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="closed-form tables with optional solver check")
    p.add_argument("--which", choices=("d4", "d5", "circulant"), required=True)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--check", action="store_true", help="confirm values with the solver")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_set_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
