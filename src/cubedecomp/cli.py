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
failure, 3 resource cap exceeded (see `--allow-large`) or memory exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import __version__
from .asymptotics import MAX_K, check_growth_bounds, eval_M, eval_M_second, find_saddle
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
from .number_theory import _mobius_d_segment, mobius_d, mobius_d_by_convolution, mobius_d_values
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
# Largest --max-n per table kind: each takes about 10 s or less at d = 3 on a
# 2-core x86-64 VM (sd 600: 7.1 s, ad 6000: 8.3 s, refined 600: 7.6 s).  td
# runs in under 1 s to 5000.
MAX_N_CAPS = {"sd": 600, "ad": 6000, "td": 5000, "refined": 600}
# mu --n A..B sieves B - A + 1 values by the primes up to isqrt(B); at either cap a fresh
# process takes under 1 s on that VM (1..10^6 at d = 3: 0.9 s, 10^14..10^14+2000: 0.55 s).
MU_CAPS = {"width": 1_000_000, "root": 10_000_000}


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


def _emit(fmt: str, text: object, command: str, params: dict, provenance: str,
          result: dict) -> None:
    """Print one result: its CSV text, or its JSON record."""
    print(text if fmt == "csv" else _record(command, params, provenance, result))


def _print_values(command: str, params: dict, provenance: str, fmt: str,
                  pairs: Iterable[Tuple[int, int]]) -> None:
    """Emit an indexed integer table: JSON record per entry, or one CSV line.

    The values were computed here, not read, so the interpreter's limit on
    int -> str digits (a guard against hostile input, Python >= 3.11) is lifted
    while they are written, and put back afterwards.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            print(",".join(str(v) for _, v in pairs))
            return
        # Only n and value change from row to row: serialise the rest once.  The
        # result sorts between provenance and schema, so the tail holds no row data.
        head, _, tail = _record(command, params, provenance, {"n": 0}).rpartition('{"n":0}')
        write, batch, size = sys.stdout.write, [], 0
        for n, v in pairs:  # read lazily; the rows go out about 32 KiB at a time
            batch.append(f'{head}{{"n":{n},"value":"{v}"}}{tail}\n')
            size += len(batch[-1])
            if size >= 1 << 15:
                write("".join(batch))
                batch, size = [], 0
        write("".join(batch))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _decomposition_text(dec: Decomposition) -> str:
    return " ".join(
        "x".join(f"{lo}:{hi}" for lo, hi in region) for region in dec.regions
    )


def _necs_text(system: Necs) -> str:
    return " ".join(f"{c.a}({c.n})" for c in system.classes)


def _check_max_n(kind: str, args) -> None:
    cap = MAX_N_CAPS[kind]
    if args.max_n > cap and not args.allow_large:
        raise _ResourceCap(f"--max-n {args.max_n} exceeds cap {cap} for {kind}")


def _load_json_input(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- commands


def _cmd_mu(args) -> int:
    lo, hi = args.n
    width, root = hi - lo + 1, math.isqrt(max(hi, 0))
    if (width > MU_CAPS["width"] or root > MU_CAPS["root"]) and not args.allow_large:
        raise _ResourceCap(f"--n {lo}..{hi} holds {width} values sieved by the primes up to "
                           f"{root}, over the caps {MU_CAPS['width']} and {MU_CAPS['root']}")
    _print_values("mu", {"d": args.d, "n": f"{lo}..{hi}"}, "recursion", args.format,
                  zip(range(lo, hi + 1), _mobius_d_segment(args.d, lo, hi)))
    return 0


def _cmd_seq(args) -> int:
    _check_max_n(args.kind, args)
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
    _check_max_n("refined", args)
    values = refined_counts(args.d, args.r, args.max_n)
    params = {"d": args.d, "r": list(args.r), "max_n": args.max_n}
    _print_values("refined", params, "series", args.format,
                  ((n, values[n]) for n in range(1, args.max_n + 1)))
    return 0


def _enum_objects(args) -> Tuple[List[object], Callable[[object], dict], Callable[[object], str]]:
    d, n = args.d, args.n
    if args.target == "necs" and d != 1:
        raise ValueError("covering systems are one-dimensional; use --d 1")
    if args.target == "trees":
        expected, noun = tree_counts(d, n).coefficient(n), "trees"
    else:
        expected = decomposition_counts(d, n)[n]
        noun = "decompositions" if args.target == "decomp" else "covering systems"
    if expected > ENUM_CAP and not args.allow_large:
        raise _ResourceCap(f"{expected} {noun} exceeds cap {ENUM_CAP}")
    if args.target == "decomp":
        objs = sorted(enumerate_decompositions(d, n), key=lambda s: s.regions)
        return objs, decomposition_to_json_dict, _decomposition_text
    if args.target == "necs":
        return sorted(enumerate_necs(n), key=lambda c: c.classes), necs_to_json_dict, _necs_text

    def tree_json(tree) -> dict:
        return {"d": d, "tree": format_tree(tree)}

    return sorted(enumerate_trees(d, n), key=format_tree), tree_json, format_tree


def _cmd_enum(args) -> int:
    objs, to_json, to_text = _enum_objects(args)
    params = {"target": args.target, "d": args.d, "n": args.n}
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                for obj in objs:
                    fh.write(json.dumps(to_json(obj), sort_keys=True,
                                        separators=(",", ":")) + "\n")
        except BrokenPipeError as exc:  # an error, unlike a closed stdout
            raise OSError(f"cannot write {args.emit}: {exc.strerror}") from None
        _emit(args.format, f"{len(objs)},{args.emit}", "enum", params, "enumeration",
              {"count": len(objs), "emitted": args.emit})
        return 0
    for obj in objs:
        _emit(args.format, to_text(obj), "enum", params, "enumeration", to_json(obj))
    return 0


def _cmd_phi(args) -> int:
    dec = decomposition_from_json_dict(_load_json_input(args.infile))
    system = phi(dec)
    result = dict(necs_to_json_dict(system), lcm=necs_lcm(system))
    _emit(args.format, _necs_text(system), "phi", {"in": args.infile}, "recursion", result)
    return 0


def _cmd_psi(args) -> int:
    data = _load_json_input(args.infile)
    if not isinstance(data, dict):
        raise ValueError('psi input must be a JSON object {"d": D, "tree": T}')
    try:
        d, raw = data["d"], data["tree"]
    except KeyError as exc:
        raise ValueError(f"malformed psi input: missing field {exc}") from None
    if type(d) is not int:
        raise ValueError(f"psi needs an integer d, got {d!r}")
    tree = parse_tree(raw) if isinstance(raw, str) else tree_from_json(raw)
    dec = psi(tree, d)
    _emit(args.format, _decomposition_text(dec), "psi", {"in": args.infile}, "recursion",
          decomposition_to_json_dict(dec))
    return 0


def _cmd_growth(args) -> int:
    lo, hi = args.d
    if lo < 1:
        raise ValueError(f"d must be >= 1, got {lo}")
    for d in range(lo, hi + 1):
        saddle = find_saddle(d, tol=args.tol, k=args.k)
        result = saddle.to_json_dict()
        result["excess"] = saddle.growth_rate - (4 * d + 1.5)
        params = {"d": d, "tol": args.tol, "k": args.k}
        _emit(args.format, f"{d},{saddle.s},{saddle.growth_rate},{result['excess']}",
              "growth", params, "saddle", result)
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
        _emit(args.format, value, "lcm-count", params, "recursion",
              {"r": list(args.r), "value": str(value)})
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


def _agree(cases: Callable[[], Iterable[tuple]], fast: Callable,
           oracle: Callable) -> Callable[[], None]:
    """A check that fast(*case) == oracle(*case) for every argument tuple of cases().

    cases is called when the check runs, so building SUITES computes nothing.
    """
    def check() -> None:
        for case in cases():
            assert fast(*case) == oracle(*case), case
    return check


def _check_tree_tables() -> None:
    series = tree_counts(1, 7)
    assert [series.coefficient(n) for n in range(1, 8)] == SCHROEDER
    for d in (1, 2):
        t = tree_counts(d, 8)
        s = decomposition_counts(d, 8)
        assert all(t.coefficient(n) > s[n] for n in range(4, 9)), d


def _check_growth_goldens() -> None:
    assert abs(find_saddle(1).growth_rate - 5.487452) < 1e-5
    for d, excess in GROWTH_EXCESS.items():
        got = find_saddle(d).growth_rate - (4 * d + 1.5)
        assert abs(got - excess) < 1e-5, (d, got)
    _check_growth_bounds_range()
    rates = [find_saddle(d).growth_rate for d in range(1, 31)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def _check_refined_oracle() -> None:
    for d, r, max_n in ((1, (2,), 6), (1, (3,), 6), (2, (2, 1), 5), (2, (2, 2), 5)):
        values = refined_counts(d, r, max_n)
        levels = enumerate_decompositions_up_to(d, max_n)
        for n in range(1, max_n + 1):
            count = sum(1 for dec in levels[n] if gcd_of(dec) == r)
            assert count == values[n], (d, r, n)


def _check_lcm_oracle() -> None:
    decs = chain.from_iterable(enumerate_decompositions_up_to(1, 8).values())
    systems = chain.from_iterable(enumerate_necs_up_to(8).values())
    dec_by_lcm = Counter(lcm_of(dec)[0] for dec in decs)
    necs_by_lcm = Counter(map(necs_lcm, systems))
    for ell in range(1, 9):
        assert dec_by_lcm[ell] == h_count((ell,)), ell
        assert necs_by_lcm[ell] == h_count((ell,)), ell


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


# Rows are (check, provenance, check function).  Rows built by _agree compare a
# fast path with its oracle or a frozen table; the rest need tolerances,
# inequalities or several kinds of assertion.
SUITES: Dict[str, List[Tuple[str, str, Callable[[], None]]]] = {
    "tables": [
        ("mu-closed-form-vs-convolution", "series", _agree(
            lambda: [(d, 200) for d in (1, 2, 3)], mobius_d_values, mobius_d_by_convolution)),
        ("mu-tables", "series", _agree(
            lambda: [(d, n) for d in MU_TABLE for n in range(1, 16)],
            mobius_d, lambda d, n: MU_TABLE[d][n - 1])),
        ("count-tables", "series", _agree(
            lambda: [(d, 10) for d in S_TABLE],
            lambda d, n: (decomposition_counts(d, n)[1:], auxiliary_counts(d, n)),
            lambda d, n: (S_TABLE[d], A_TABLE[d]))),
        ("series-round-trip", "series", _agree(
            lambda: [(d, 40) for d in (1, 2, 3)],
            lambda d, n: mobius_series(d, n).compose(decomposition_series(d, n)).coeffs,
            lambda d, n: (0, 1) + (0,) * (n - 1))),
        ("dual-reversion-agreement", "series", _agree(
            lambda: [(d, 40) for d in (1, 2, 3)], decomposition_counts, _revert_by_extraction)),
        ("tree-count-tables", "series", _check_tree_tables),
        ("lcm-count-tables", "recursion", _agree(
            lambda: [(n,) for n in range(1, 17)],
            lambda n: (g_count((n,)), h_count((n,))),
            lambda n: (G_ROW[n - 1], H_ROW[n - 1]))),
        ("growth-goldens", "saddle", _check_growth_goldens),
    ],
    "oracles": [
        ("decomposition-enumeration-counts", "enumeration", _agree(
            lambda: ((1, 7), (2, 5)),
            lambda d, n: list(map(len, enumerate_decompositions_up_to(d, n).values())),
            lambda d, n: decomposition_counts(d, n)[1:])),
        ("necs-enumeration-counts", "enumeration", _agree(
            lambda: ((1, 7),),
            lambda d, n: list(map(len, enumerate_necs_up_to(n).values())),
            lambda d, n: decomposition_counts(d, n)[1:])),
        ("refined-counts-vs-enumeration", "enumeration", _check_refined_oracle),
        ("tree-enumeration-counts", "enumeration", _agree(
            lambda: [(d, n) for d in (1, 2) for n in range(1, 8)],
            lambda d, n: len(enumerate_trees(d, n)),
            lambda d, n: tree_counts(d, n).coefficient(n))),
        ("prime-set-cardinalities", "enumeration", _agree(
            lambda: [(d, n) for d in (1, 2, 3) for n in range(1, 13)],
            lambda d, n: len(enumerate_B(d, n)),
            lambda d, n: abs(mobius_d(d, n + 1)))),
        ("sequence-signed-sums", "enumeration", _agree(
            lambda: [(d, n) for d in (1, 2) for n in range(1, 11)],
            signed_sum, lambda d, n: auxiliary_counts(d, n)[n])),
        ("reduced-counts-line", "enumeration", _agree(
            lambda: [(1, n) for n in range(1, 11)],
            lambda d, n: len(enumerate_A_tilde(d, n)),
            lambda d, n: auxiliary_counts(d, n)[n])),
        ("lcm-count-oracle", "enumeration", _check_lcm_oracle),
    ],
    "bijection": [
        ("covering-map-bijective", "enumeration", _agree(
            lambda: [(n,) for n in range(1, 8)],
            lambda n: Counter(map(phi, enumerate_decompositions(1, n))),
            lambda n: Counter(enumerate_necs(n)))),
        ("covering-map-preserves-gcd-lcm", "enumeration", _agree(
            lambda: [(dec,) for n in range(1, 7) for dec in enumerate_decompositions(1, n)],
            lambda dec: (necs_lcm(phi(dec)), necs_gcd(phi(dec))),
            lambda dec: (lcm_of(dec)[0], gcd_of(dec)[0]))),
        ("tree-map-onto", "enumeration", _agree(
            lambda: [(n,) for n in range(1, 6)],
            lambda n: {psi(tree, 2) for tree in enumerate_trees(2, n)},
            lambda n: enumerate_decompositions(2, n))),
        ("tree-map-collisions", "enumeration", _agree(
            lambda: (("(1 L L L L L L)", "(1 (1 L L L) (1 L L L))", 1),
                     ("(1 (2 L L L) (2 L L L))", "(2 (1 L L) (1 L L) (1 L L))", 2)),
            lambda t, u, d: psi(parse_tree(t), d),
            lambda t, u, d: psi(parse_tree(u), d))),
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
    names = list(SUITES) if args.suite == "all" else [args.suite]
    params = {"suite": args.suite}
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
            result = {"suite": suite, "check": name, "status": status}
            if detail:
                result["detail"] = detail
            _emit(args.format, f"{suite},{name},{status}", "verify", params, provenance, result)
    _emit(args.format, f"total,{total},failed,{failed}", "verify", params, "enumeration",
          {"total": total, "failed": failed})
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
    p.add_argument("--allow-large", action="store_true",
                   help=f"lift the caps of {MU_CAPS['width']} values and of "
                        f"primes up to {MU_CAPS['root']} (B up to about 10^14)")
    p.set_defaults(func=_cmd_mu)

    p = sub.add_parser("seq", parents=[common], help="coefficient tables s_d, a_d, t_d")
    p.add_argument("kind", choices=("sd", "ad", "td"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--allow-large", action="store_true",
                   help=f"lift the --max-n cap (sd {MAX_N_CAPS['sd']}, "
                        f"ad {MAX_N_CAPS['ad']}, td {MAX_N_CAPS['td']})")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("refined", parents=[common],
                       help="counts of decompositions refining a grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=_parse_int_vector, required=True, metavar="R1,..,RD")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--allow-large", action="store_true",
                   help=f"lift the --max-n cap {MAX_N_CAPS['refined']}")
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
    p.add_argument("--k", type=int, default=6, help=f"truncation exponent, 1..{MAX_K}")
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
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
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
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader has gone: exit 1 without a message, and
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # let the exit flush pass
        return 1
    except _ResourceCap as exc:
        print(f"cubedecomp: resource cap: {exc}; pass --allow-large to override",
              file=sys.stderr)
        return 3
    except MemoryError:
        print("cubedecomp: out of memory; try a smaller size", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError, RecursionError) as exc:
        print(f"cubedecomp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
