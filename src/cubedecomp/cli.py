"""Command-line front end.

Subcommands cover every computation in the package: coefficient tables
(`mu`, `seq`, `refined`, `lcm-count`), exhaustive object enumeration
(`enum`), the structural maps (`phi`, `psi`), growth analytics (`growth`),
and a self-check runner (`verify`).

Output is a stream of JSON lines by default: each line is one record

    {"schema": "cubedecomp.v1", "command": ..., "params": {...},
     "provenance": "series" | "enumeration" | "recursion" | "saddle",
     "result": {...}}

with big integers rendered as decimal strings (values overflow 64-bit
consumers quickly) and keys sorted so identical invocations are
byte-identical.  `--format csv` switches to bare comma-separated values:
one line of values for coefficient tables, one line per object for
enumerations.  `--threads` is accepted for interface stability; every
computation runs on the deterministic single-threaded reference path.

Exit codes: 0 success, 1 usage or computation error, 2 verification
failure, 3 resource cap exceeded (see `--allow-large`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .asymptotics import check_growth_bounds, eval_M, eval_M_second, find_saddle
from .covering import (
    Necs,
    enumerate_necs,
    enumerate_necs_up_to,
    necs_gcd,
    necs_lcm,
    necs_to_json_dict,
    phi,
)
from .geometry import (
    Decomposition,
    decomposition_from_json_dict,
    decomposition_to_json_dict,
    enumerate_decompositions,
    enumerate_decompositions_up_to,
    gcd_of,
    lcm_of,
)
from .lcm_counts import g_count, h_count
from .number_theory import mobius_d, mobius_d_by_convolution, mobius_d_values
from .prime_sequences import (
    enumerate_A,
    enumerate_A_tilde,
    enumerate_B,
    ratio_injection,
    signed_sum,
)
from .series import (
    _revert_by_extraction,
    auxiliary_counts,
    decomposition_counts,
    decomposition_series,
    mobius_series,
    refined_counts,
)
from .trees import enumerate_trees, format_tree, parse_tree, psi, tree_counts, tree_from_json

SCHEMA = "cubedecomp.v1"
ENUM_CAP = 100_000
LCM_PRODUCT_CAP = 10_000


class _ResourceCap(Exception):
    """Raised when a computation would exceed a default size cap."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which is reserved
    # for verification failures here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> Tuple[int, int]:
    """"A..B" or a single "N" (meaning N..N)."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A..B, got {text!r}")
    if b < a:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def _parse_int_vector(text: str) -> Tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not vec:
        raise argparse.ArgumentTypeError("empty vector")
    return vec


def _record(command: str, params: dict, provenance: str, result: dict) -> str:
    return json.dumps(
        {
            "schema": SCHEMA,
            "command": command,
            "params": params,
            "provenance": provenance,
            "result": result,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _print_values(command: str, params: dict, provenance: str, fmt: str,
                  pairs: Iterable[Tuple[int, int]]) -> None:
    """Emit an indexed integer table: JSON record per entry, or one CSV line."""
    pairs = list(pairs)
    if fmt == "csv":
        print(",".join(str(v) for _, v in pairs))
        return
    # Only n and value change from row to row: serialise the rest once.  The
    # result sorts between provenance and schema, so the tail holds no row data.
    head, _, tail = _record(command, params, provenance, {"n": 0}).rpartition('{"n":0}')
    write = sys.stdout.write
    for n, v in pairs:
        write(f'{head}{{"n":{n},"value":"{v}"}}{tail}\n')


def _decomposition_text(dec: Decomposition) -> str:
    return " ".join(
        "x".join(f"{lo}:{hi}" for lo, hi in region) for region in dec.regions
    )


def _necs_text(system: Necs) -> str:
    return " ".join(f"{c.a}({c.n})" for c in system.classes)


def _load_json_input(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- commands


def _cmd_mu(args) -> int:
    lo, hi = args.n
    if lo < 1:
        raise ValueError(f"mu is defined for n >= 1, got {lo}")
    params = {"d": args.d, "n": f"{lo}..{hi}"}
    # The table costs O(hi) however narrow the range, a point query O(sqrt(n));
    # measured, the table is faster once the range holds 16-64 isqrt(hi) values.
    if hi - lo + 1 >= 32 * math.isqrt(hi):
        table = mobius_d_values(args.d, hi)
        pairs = ((n, table[n]) for n in range(lo, hi + 1))
    else:
        pairs = ((n, mobius_d(args.d, n)) for n in range(lo, hi + 1))
    _print_values("mu", params, "recursion", args.format, pairs)
    return 0


def _cmd_seq(args) -> int:
    params = {"kind": args.kind, "d": args.d, "max_n": args.max_n}
    if args.kind == "sd":
        values = decomposition_counts(args.d, args.max_n)
        pairs = [(n, values[n]) for n in range(1, args.max_n + 1)]
    elif args.kind == "ad":
        values = auxiliary_counts(args.d, args.max_n)
        pairs = [(n, values[n]) for n in range(0, args.max_n + 1)]
    else:
        series = tree_counts(args.d, args.max_n)
        pairs = [(n, series.coefficient(n)) for n in range(1, args.max_n + 1)]
    _print_values("seq", params, "series", args.format, pairs)
    return 0


def _cmd_refined(args) -> int:
    values = refined_counts(args.d, args.r, args.max_n)
    params = {"d": args.d, "r": list(args.r), "max_n": args.max_n}
    _print_values("refined", params, "series", args.format,
                  ((n, values[n]) for n in range(1, args.max_n + 1)))
    return 0


def _enum_objects(args) -> Tuple[List[object], Callable[[object], dict], Callable[[object], str]]:
    d, n = args.d, args.n
    if args.target == "decomp":
        expected = decomposition_counts(d, n)[n]
        if expected > ENUM_CAP and not args.allow_large:
            raise _ResourceCap(f"{expected} decompositions exceeds cap {ENUM_CAP}")
        objs = sorted(enumerate_decompositions(d, n), key=lambda s: s.regions)
        return objs, decomposition_to_json_dict, _decomposition_text
    if args.target == "necs":
        if d != 1:
            raise ValueError("covering systems are one-dimensional; use --d 1")
        expected = decomposition_counts(1, n)[n]
        if expected > ENUM_CAP and not args.allow_large:
            raise _ResourceCap(f"{expected} covering systems exceeds cap {ENUM_CAP}")
        objs = sorted(enumerate_necs(n), key=lambda c: c.classes)
        return objs, necs_to_json_dict, _necs_text
    expected = tree_counts(d, n).coefficient(n)
    if expected > ENUM_CAP and not args.allow_large:
        raise _ResourceCap(f"{expected} trees exceeds cap {ENUM_CAP}")
    objs = sorted(enumerate_trees(d, n), key=format_tree)

    def tree_json(tree) -> dict:
        return {"d": d, "tree": format_tree(tree)}

    return objs, tree_json, format_tree


def _cmd_enum(args) -> int:
    objs, to_json, to_text = _enum_objects(args)
    params = {"target": args.target, "d": args.d, "n": args.n}
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            for obj in objs:
                fh.write(json.dumps(to_json(obj), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        summary = {"count": len(objs), "emitted": args.emit}
        if args.format == "csv":
            print(f"{len(objs)},{args.emit}")
        else:
            print(_record("enum", params, "enumeration", summary))
        return 0
    for obj in objs:
        if args.format == "csv":
            print(to_text(obj))
        else:
            print(_record("enum", params, "enumeration", to_json(obj)))
    return 0


def _cmd_phi(args) -> int:
    dec = decomposition_from_json_dict(_load_json_input(args.infile))
    system = phi(dec)
    params = {"in": args.infile}
    if args.format == "csv":
        print(_necs_text(system))
        return 0
    result = necs_to_json_dict(system)
    result["lcm"] = necs_lcm(system)
    print(_record("phi", params, "recursion", result))
    return 0


def _cmd_psi(args) -> int:
    data = _load_json_input(args.infile)
    if not isinstance(data, dict):
        raise ValueError('psi input must be a JSON object {"d": D, "tree": T}')
    try:
        d = int(data["d"])
    except TypeError:
        raise ValueError(f"psi needs an integer d, got {data['d']!r}") from None
    raw = data["tree"]
    tree = parse_tree(raw) if isinstance(raw, str) else tree_from_json(raw)
    dec = psi(tree, d)
    params = {"in": args.infile}
    if args.format == "csv":
        print(_decomposition_text(dec))
        return 0
    print(_record("psi", params, "recursion", decomposition_to_json_dict(dec)))
    return 0


def _cmd_growth(args) -> int:
    lo, hi = args.d
    if lo < 1:
        raise ValueError(f"d must be >= 1, got {lo}")
    for d in range(lo, hi + 1):
        saddle = find_saddle(d, tol=args.tol, k=args.k)
        result = saddle.to_json_dict()
        result["excess"] = saddle.growth_rate - (4 * d + 1.5)
        if args.format == "csv":
            print(f"{d},{saddle.s},{saddle.growth_rate},{result['excess']}")
        else:
            params = {"d": d, "tol": args.tol, "k": args.k}
            print(_record("growth", params, "saddle", result))
    return 0


def _cmd_lcm_count(args) -> int:
    count = g_count if args.kind == "g" else h_count
    if (args.r is None) == (args.n is None):
        raise ValueError("exactly one of --r and --n is required")
    if args.r is not None:
        product = math.prod(args.r)
        if product > LCM_PRODUCT_CAP and not args.allow_large:
            raise _ResourceCap(
                f"product {product} of --r entries exceeds cap {LCM_PRODUCT_CAP}")
        params = {"kind": args.kind, "r": list(args.r)}
        value = count(args.r)
        if args.format == "csv":
            print(value)
        else:
            print(_record("lcm-count", params, "recursion",
                          {"r": list(args.r), "value": str(value)}))
        return 0
    lo, hi = args.n
    if lo < 1:
        raise ValueError(f"n must be >= 1, got {lo}")
    if hi > LCM_PRODUCT_CAP and not args.allow_large:
        raise _ResourceCap(f"n up to {hi} exceeds cap {LCM_PRODUCT_CAP}")
    params = {"kind": args.kind, "n": f"{lo}..{hi}"}
    _print_values("lcm-count", params, "recursion", args.format,
                  ((n, count((n,))) for n in range(lo, hi + 1)))
    return 0


# ---------------------------------------------------------------- verify

MU_TABLE = {
    1: [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1],
    2: [1, -2, -2, 1, -2, 4, -2, 0, 1, 4, -2, -2, -2, 4, 4],
    3: [1, -3, -3, 3, -3, 9, -3, -1, 3, 9, -3, -9, -3, 9, 9],
}
S_TABLE = {
    1: [1, 1, 3, 10, 39, 160, 691, 3081, 14095, 65757],
    2: [1, 2, 10, 59, 394, 2810, 20998, 162216, 1285185, 10384986],
    3: [1, 3, 21, 177, 1677, 17001, 180525, 1981909, 22314339, 256245783],
}
A_TABLE = {
    1: [1, 1, 2, 3, 6, 9, 17, 28, 50, 83, 147],
    2: [1, 2, 6, 15, 42, 108, 291, 766, 2041, 5395, 14328],
    3: [1, 3, 12, 42, 156, 558, 2028, 7318, 26490, 95730, 346218],
}
G_ROW = [1, 2, 2, 5, 2, 12, 2, 26, 9, 36, 2, 206, 2, 132, 40, 677]
H_ROW = [1, 1, 1, 3, 1, 9, 1, 21, 7, 33, 1, 191, 1, 129, 37, 651]
SCHROEDER = [1, 1, 3, 11, 45, 197, 903]
GROWTH_EXCESS = {2: 0.004290, 3: 0.007080, 30: 0.001910}


def _check_mu_closed_form() -> None:
    for d in (1, 2, 3):
        assert mobius_d_values(d, 200) == mobius_d_by_convolution(d, 200), d


def _check_mu_tables() -> None:
    for d, row in MU_TABLE.items():
        got = [mobius_d(d, n) for n in range(1, 16)]
        assert got == row, (d, got)


def _check_count_tables() -> None:
    for d, row in S_TABLE.items():
        assert decomposition_counts(d, 10)[1:] == row, d
    for d, row in A_TABLE.items():
        assert auxiliary_counts(d, 10) == row, d


def _check_series_round_trip() -> None:
    for d in (1, 2, 3):
        composed = mobius_series(d, 40).compose(decomposition_series(d, 40))
        expected = [0, 1] + [0] * 39
        assert list(composed.coeffs) == expected, d


def _check_dual_reversion() -> None:
    for d in (1, 2, 3):
        assert decomposition_counts(d, 40) == _revert_by_extraction(d, 40), d


def _check_tree_tables() -> None:
    series = tree_counts(1, 7)
    assert [series.coefficient(n) for n in range(1, 8)] == SCHROEDER
    for d in (1, 2):
        t = tree_counts(d, 8)
        s = decomposition_counts(d, 8)
        assert all(t.coefficient(n) > s[n] for n in range(4, 9)), d


def _check_lcm_tables() -> None:
    assert [g_count((n,)) for n in range(1, 17)] == G_ROW
    assert [h_count((n,)) for n in range(1, 17)] == H_ROW


def _check_growth_goldens() -> None:
    assert abs(find_saddle(1).growth_rate - 5.487452) < 1e-5
    for d, excess in GROWTH_EXCESS.items():
        got = find_saddle(d).growth_rate - (4 * d + 1.5)
        assert abs(got - excess) < 1e-5, (d, got)
    assert all(check_growth_bounds(d) for d in range(2, 31))
    rates = [find_saddle(d).growth_rate for d in range(1, 31)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def _check_decomposition_enumeration() -> None:
    levels = enumerate_decompositions_up_to(1, 7)
    s1 = decomposition_counts(1, 7)
    assert all(len(levels[n]) == s1[n] for n in range(1, 8))
    levels = enumerate_decompositions_up_to(2, 5)
    s2 = decomposition_counts(2, 5)
    assert all(len(levels[n]) == s2[n] for n in range(1, 6))


def _check_necs_enumeration() -> None:
    levels = enumerate_necs_up_to(7)
    s1 = decomposition_counts(1, 7)
    assert all(len(levels[n]) == s1[n] for n in range(1, 8))


def _check_refined_oracle() -> None:
    for d, r, max_n in ((1, (2,), 6), (1, (3,), 6), (2, (2, 1), 5), (2, (2, 2), 5)):
        values = refined_counts(d, r, max_n)
        levels = enumerate_decompositions_up_to(d, max_n)
        for n in range(1, max_n + 1):
            count = sum(1 for dec in levels[n] if gcd_of(dec) == r)
            assert count == values[n], (d, r, n)


def _check_tree_enumeration() -> None:
    for d in (1, 2):
        series = tree_counts(d, 7)
        for n in range(1, 8):
            assert len(enumerate_trees(d, n)) == series.coefficient(n), (d, n)


def _check_prime_set_counts() -> None:
    for d in (1, 2, 3):
        mu = mobius_d_values(d, 13)
        for n in range(1, 13):
            assert len(enumerate_B(d, n)) == abs(mu[n + 1]), (d, n)


def _check_signed_sums() -> None:
    for d in (1, 2):
        a = auxiliary_counts(d, 10)
        for n in range(1, 11):
            assert signed_sum(d, n) == a[n], (d, n)


def _check_reduced_counts_line() -> None:
    a = auxiliary_counts(1, 10)
    for n in range(1, 11):
        assert len(enumerate_A_tilde(1, n)) == a[n], n


def _check_lcm_oracle() -> None:
    dec_by_lcm: Dict[int, int] = {}
    for n, decs in enumerate_decompositions_up_to(1, 8).items():
        for dec in decs:
            ell = lcm_of(dec)[0]
            dec_by_lcm[ell] = dec_by_lcm.get(ell, 0) + 1
    necs_by_lcm: Dict[int, int] = {}
    for n, systems in enumerate_necs_up_to(8).items():
        for system in systems:
            ell = necs_lcm(system)
            necs_by_lcm[ell] = necs_by_lcm.get(ell, 0) + 1
    for ell in range(1, 9):
        assert dec_by_lcm.get(ell, 0) == h_count((ell,)), ell
        assert necs_by_lcm.get(ell, 0) == h_count((ell,)), ell


def _check_phi_bijection() -> None:
    for n in range(1, 8):
        images = {phi(dec) for dec in enumerate_decompositions(1, n)}
        assert len(images) == decomposition_counts(1, n)[n], n
        assert images == enumerate_necs(n), n


def _check_phi_preserves_lcm() -> None:
    for n in range(1, 7):
        for dec in enumerate_decompositions(1, n):
            system = phi(dec)
            assert necs_lcm(system) == lcm_of(dec)[0], dec
            assert necs_gcd(system) == gcd_of(dec)[0], dec


def _check_psi_onto() -> None:
    for n in range(1, 6):
        image = {psi(tree, 2) for tree in enumerate_trees(2, n)}
        assert image == enumerate_decompositions(2, n), n


def _check_psi_collisions() -> None:
    t1 = (1,) + ((),) * 6
    t2 = (1, (1, (), (), ()), (1, (), (), ()))
    assert psi(t1, 1) == psi(t2, 1)
    t3 = (1, (2, (), (), ()), (2, (), (), ()))
    t4 = (2, (1, (), ()), (1, (), ()), (1, (), ()))
    assert psi(t3, 2) == psi(t4, 2)


def _check_ratio_injection() -> None:
    for d in (1, 2):
        for n in range(1, 8):
            domain = enumerate_A(d, n)
            target = set(map(tuple, enumerate_A(d, n + 1)))
            for colour in range(1, d + 1):
                images = [ratio_injection(seq, colour) for seq in domain]
                assert len(set(images)) == len(domain), (d, n, colour)
                assert all(tuple(img) in target for img in images), (d, n, colour)


def _check_saddle_certification() -> None:
    for d in range(1, 31):
        saddle = find_saddle(d)
        assert saddle.M2_at_s < 0, d
        assert saddle.tail_bound_used < 1e-13, d


def _check_growth_bounds_range() -> None:
    assert all(check_growth_bounds(d) for d in range(2, 31))


def _check_series_ratio_consistency() -> None:
    for d in (1, 2, 3):
        s = decomposition_counts(d, 151)
        ratio = s[151] / s[150]
        rate = find_saddle(d).growth_rate
        assert abs(ratio - rate) / rate < 0.01, (d, ratio, rate)


def _check_truncation_stability() -> None:
    for d in (1, 2, 5, 30):
        saddle = find_saddle(d)
        for evaluator in (eval_M, eval_M_second):
            v6, t6 = evaluator(d, saddle.s, 6)
            v7, _ = evaluator(d, saddle.s, 7)
            assert abs(v7 - v6) <= t6, (d, evaluator.__name__)


SUITES: Dict[str, List[Tuple[str, str, Callable[[], None]]]] = {
    "tables": [
        ("mu-closed-form-vs-convolution", "series", _check_mu_closed_form),
        ("mu-tables", "series", _check_mu_tables),
        ("count-tables", "series", _check_count_tables),
        ("series-round-trip", "series", _check_series_round_trip),
        ("dual-reversion-agreement", "series", _check_dual_reversion),
        ("tree-count-tables", "series", _check_tree_tables),
        ("lcm-count-tables", "recursion", _check_lcm_tables),
        ("growth-goldens", "saddle", _check_growth_goldens),
    ],
    "oracles": [
        ("decomposition-enumeration-counts", "enumeration", _check_decomposition_enumeration),
        ("necs-enumeration-counts", "enumeration", _check_necs_enumeration),
        ("refined-counts-vs-enumeration", "enumeration", _check_refined_oracle),
        ("tree-enumeration-counts", "enumeration", _check_tree_enumeration),
        ("prime-set-cardinalities", "enumeration", _check_prime_set_counts),
        ("sequence-signed-sums", "enumeration", _check_signed_sums),
        ("reduced-counts-line", "enumeration", _check_reduced_counts_line),
        ("lcm-count-oracle", "enumeration", _check_lcm_oracle),
    ],
    "bijection": [
        ("covering-map-bijective", "enumeration", _check_phi_bijection),
        ("covering-map-preserves-gcd-lcm", "enumeration", _check_phi_preserves_lcm),
        ("tree-map-onto", "enumeration", _check_psi_onto),
        ("tree-map-collisions", "enumeration", _check_psi_collisions),
        ("ratio-injection", "enumeration", _check_ratio_injection),
    ],
    "asymptotics": [
        ("saddle-certification", "saddle", _check_saddle_certification),
        ("growth-bounds", "saddle", _check_growth_bounds_range),
        ("series-ratio-consistency", "saddle", _check_series_ratio_consistency),
        ("truncation-stability", "saddle", _check_truncation_stability),
    ],
}


def _cmd_verify(args) -> int:
    names = ["tables", "oracles", "bijection", "asymptotics"] if args.suite == "all" else [args.suite]
    failed = 0
    total = 0
    for suite in names:
        for name, provenance, check in SUITES[suite]:
            total += 1
            try:
                check()
                status, detail = "pass", ""
            except AssertionError as exc:
                failed += 1
                status, detail = "fail", str(exc)
            if args.format == "csv":
                print(f"{suite},{name},{status}")
            else:
                result = {"suite": suite, "check": name, "status": status}
                if detail:
                    result["detail"] = detail
                print(_record("verify", {"suite": args.suite}, provenance, result))
    if args.format == "csv":
        print(f"total,{total},failed,{failed}")
    else:
        print(_record("verify", {"suite": args.suite}, "enumeration",
                      {"total": total, "failed": failed}))
    return 2 if failed else 0


# ---------------------------------------------------------------- wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="cubedecomp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default: JSON lines)")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; the deterministic "
                             "single-threaded path is always used")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("mu", parents=[common], help="signed splitting weights mu_d(n)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("seq", parents=[common], help="coefficient tables s_d, a_d, t_d")
    p.add_argument("kind", choices=("sd", "ad", "td"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("refined", parents=[common],
                       help="counts of decompositions refining a grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=_parse_int_vector, required=True, metavar="R1,..,RD")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_refined)

    p = sub.add_parser("enum", parents=[common], help="enumerate objects exhaustively")
    p.add_argument("target", choices=("decomp", "necs", "trees"))
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", metavar="FILE", help="write one object per line to FILE")
    p.add_argument("--allow-large", action="store_true",
                   help=f"lift the {ENUM_CAP}-object cap")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("phi", parents=[common],
                       help="decomposition -> covering system bijection")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                   help="decomposition JSON ('-' for stdin)")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("psi", parents=[common], help="tree -> decomposition map")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                   help='JSON {"d": D, "tree": "(1 L L)"} (\'-\' for stdin)')
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("growth", parents=[common], help="growth rates K_d")
    p.add_argument("--d", type=_parse_range, required=True, metavar="D1..D2")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--k", type=int, default=6, help="truncation exponent")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("lcm-count", parents=[common],
                       help="counts by refined grid (g) or exact lcm (h)")
    p.add_argument("kind", choices=("g", "h"))
    p.add_argument("--r", type=_parse_int_vector, metavar="R1,..,RD")
    p.add_argument("--n", type=_parse_range, metavar="A..B",
                   help="one-dimensional table over a range")
    p.add_argument("--allow-large", action="store_true",
                   help=f"lift the product cap {LCM_PRODUCT_CAP}")
    p.set_defaults(func=_cmd_lcm_count)

    p = sub.add_parser("verify", parents=[common], help="run self-check suites")
    p.add_argument("--suite", choices=("tables", "oracles", "bijection", "asymptotics", "all"),
                   default="all")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage errors (code 1 via _Parser.error) and
        # --help/--version (code 0) by raising; keep main() total.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ResourceCap as exc:
        print(f"cubedecomp: resource cap: {exc}; pass --allow-large to override",
              file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError, RecursionError) as exc:
        print(f"cubedecomp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
