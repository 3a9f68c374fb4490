"""The bodies of the CLI commands and their output helpers.

`cli.main` imports this module once a command line has parsed, and runs
`_cmd_<command>` on it; `--version`, `--help` and a usage error never compile
it.  The size caps it enforces live in the package root beside `MAX_K`, where
the parser reads them for its help.  It never imports `cli`: under `python -m
cubedecomp.cli` the CLI runs as `__main__`, so an import of `cubedecomp.cli`
would load a second copy of it.  See `cli` for the output records and the exit
codes.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, List, Tuple

from . import (ENUM_CAP, LCM_PRODUCT_CAP, MAX_K, MAX_N_CAPS, MU_CAPS, SUITE_NAMES, _check_int,
               _malformed)

# Commands read public names through the package root, which under `python -m` binds
# each on its first read, so a start compiles only what its command uses.
lib = sys.modules[__package__]

if TYPE_CHECKING:
    from .covering import Necs
    from .geometry import Decomposition

SCHEMA = "cubedecomp.v1"


class _ResourceCap(Exception):
    """Raised when a computation would exceed a default size cap."""


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
    """--d >= 1, and --max-n from the table's first n (0 for ad, else 1) to its cap."""
    _check_int("--d", args.d)
    _check_int("--max-n", args.max_n, 0 if kind == "ad" else 1)
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
    from .number_theory import _mobius_d_segment

    lo, hi = args.n
    _check_int("--d", args.d, 0)
    _check_int("--n", lo)
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
        values = lib.decomposition_counts(args.d, args.max_n)
        pairs = [(n, values[n]) for n in range(1, args.max_n + 1)]
    elif args.kind == "ad":
        values = lib.auxiliary_counts(args.d, args.max_n)
        pairs = [(n, values[n]) for n in range(0, args.max_n + 1)]
    else:
        series = lib.tree_counts(args.d, args.max_n)
        pairs = [(n, series.coefficient(n)) for n in range(1, args.max_n + 1)]
    _print_values("seq", params, "series", args.format, pairs)
    return 0


def _cmd_refined(args) -> int:
    for r in args.r:
        _check_int("--r entries", r)
    _check_max_n("refined", args)
    values = lib.refined_counts(args.d, args.r, args.max_n)
    params = {"d": args.d, "r": list(args.r), "max_n": args.max_n}
    _print_values("refined", params, "series", args.format,
                  ((n, values[n]) for n in range(1, args.max_n + 1)))
    return 0


def _enum_objects(args) -> Tuple[List[object], Callable[[object], dict], Callable[[object], str]]:
    d, n = args.d, args.n
    _check_int("--d", d)
    _check_int("--n", n)
    if args.target == "necs" and d != 1:
        raise ValueError("covering systems are one-dimensional; use --d 1")
    if args.target == "trees":
        expected, noun = lib.tree_counts(d, n).coefficient(n), "trees"
    else:
        expected = lib.decomposition_counts(d, n)[n]
        noun = "decompositions" if args.target == "decomp" else "covering systems"
    if expected > ENUM_CAP and not args.allow_large:
        raise _ResourceCap(f"{expected} {noun} exceeds cap {ENUM_CAP}")
    if args.target == "decomp":
        objs = sorted(lib.enumerate_decompositions(d, n), key=lambda s: s.regions)
        return objs, lib.decomposition_to_json_dict, _decomposition_text
    if args.target == "necs":
        objs = sorted(lib.enumerate_necs(n), key=lambda c: c.classes)
        return objs, lib.necs_to_json_dict, _necs_text

    def tree_json(tree) -> dict:
        return {"d": d, "tree": lib.format_tree(tree)}

    return sorted(lib.enumerate_trees(d, n), key=lib.format_tree), tree_json, lib.format_tree


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
    system = lib.phi(lib.decomposition_from_json_dict(_load_json_input(args.infile)))
    result = dict(lib.necs_to_json_dict(system), lcm=lib.necs_lcm(system))
    _emit(args.format, _necs_text(system), "phi", {"in": args.infile}, "recursion", result)
    return 0


def _cmd_psi(args) -> int:
    data = _load_json_input(args.infile)
    try:
        d, raw = data["d"], data["tree"]
    except (KeyError, TypeError) as exc:  # TypeError: not a JSON object
        raise _malformed("psi", exc) from None
    # tree_from_json loads _oracles, which the text form does not
    tree = lib.parse_tree(raw) if isinstance(raw, str) else lib.tree_from_json(raw)
    dec = lib.psi(tree, d)
    _emit(args.format, _decomposition_text(dec), "psi", {"in": args.infile}, "recursion",
          lib.decomposition_to_json_dict(dec))
    return 0


def _cmd_growth(args) -> int:
    lo, hi = args.d
    _check_int("--d", lo)
    if not 0 < args.tol < math.inf:  # also refuses NaN
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    if not 1 <= args.k <= MAX_K:
        raise ValueError(f"--k must be in 1..{MAX_K}, got {args.k}")
    for d in range(lo, hi + 1):
        saddle = lib.find_saddle(d, tol=args.tol, k=args.k)
        result = saddle.to_json_dict()
        result["excess"] = saddle.growth_rate - (4 * d + 1.5)
        params = {"d": d, "tol": args.tol, "k": args.k}
        _emit(args.format, f"{d},{saddle.s},{saddle.growth_rate},{result['excess']}",
              "growth", params, "saddle", result)
    return 0


def _cmd_lcm_count(args) -> int:
    count = lib.g_count if args.kind == "g" else lib.h_count
    if (args.r is None) == (args.n is None):
        raise ValueError("exactly one of --r and --n is required")
    if args.r is not None:
        for r in args.r:
            _check_int("--r entries", r)
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
    _check_int("--n", lo)
    if hi > LCM_PRODUCT_CAP and not args.allow_large:
        raise _ResourceCap(f"n up to {hi} exceeds cap {LCM_PRODUCT_CAP}")
    params = {"kind": args.kind, "n": f"{lo}..{hi}"}
    _print_values("lcm-count", params, "recursion", args.format,
                  ((n, count((n,))) for n in range(lo, hi + 1)))
    return 0


def _cmd_verify(args) -> int:
    from ._verify import SUITES  # only verify compiles the suites

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
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
