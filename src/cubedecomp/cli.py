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
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

# Each command imports the library functions it uses, so a start compiles only those.
from . import MAX_K, __version__

if TYPE_CHECKING:
    from .covering import Necs
    from .geometry import Decomposition

SCHEMA = "cubedecomp.v1"
ENUM_CAP = 100_000
LCM_PRODUCT_CAP = 10_000
# Largest --max-n per table kind: each takes about 10 s or less at d = 3 on a
# 2-core x86-64 VM (sd 600: 7.1 s, ad 6000: 8.3 s, refined 600: 7.6 s).  td
# runs in under 1 s to 5000.
MAX_N_CAPS = {"sd": 600, "ad": 6000, "td": 5000, "refined": 600}
# mu --n A..B sieves B - A + 1 values by the primes up to isqrt(B); at either cap a fresh
# process takes under 1 s on that VM (1..10^6 at d = 3: 0.9 s, 10^14..10^14+2000: 0.55 s).
# Past the root cap, --allow-large still sieves every prime up to isqrt(B), however narrow
# the range, one block at a time (n = 10^16 alone: 4.1-4.6 s, 16.6 MB peak RSS); library
# mobius_d answers that point in 62 us.
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


def _check_bounds(*bounds: Tuple[str, int, int]) -> None:
    """Raise ValueError naming the first option (flag, value, least) below its least value."""
    for flag, value, least in bounds:
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")


def _check_max_n(kind: str, args) -> None:
    """--d >= 1, and --max-n from the table's first n (0 for ad, else 1) to its cap."""
    _check_bounds(("--d", args.d, 1), ("--max-n", args.max_n, 0 if kind == "ad" else 1))
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
        from .series import decomposition_counts

        values = decomposition_counts(args.d, args.max_n)
        pairs = [(n, values[n]) for n in range(1, args.max_n + 1)]
    elif args.kind == "ad":
        from .series import auxiliary_counts

        values = auxiliary_counts(args.d, args.max_n)
        pairs = [(n, values[n]) for n in range(0, args.max_n + 1)]
    else:
        from .trees import tree_counts

        series = tree_counts(args.d, args.max_n)
        pairs = [(n, series.coefficient(n)) for n in range(1, args.max_n + 1)]
    _print_values("seq", params, "series", args.format, pairs)
    return 0


def _cmd_refined(args) -> int:
    from .series import refined_counts

    _check_max_n("refined", args)
    values = refined_counts(args.d, args.r, args.max_n)
    params = {"d": args.d, "r": list(args.r), "max_n": args.max_n}
    _print_values("refined", params, "series", args.format,
                  ((n, values[n]) for n in range(1, args.max_n + 1)))
    return 0


def _enum_objects(args) -> Tuple[List[object], Callable[[object], dict], Callable[[object], str]]:
    from .covering import enumerate_necs, necs_to_json_dict  # the enumerations load _oracles
    from .geometry import decomposition_to_json_dict, enumerate_decompositions
    from .series import decomposition_counts
    from .trees import enumerate_trees, format_tree, tree_counts

    d, n = args.d, args.n
    _check_bounds(("--d", d, 1), ("--n", n, 1))
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
    from .covering import necs_lcm, necs_to_json_dict, phi
    from .geometry import decomposition_from_json_dict

    dec = decomposition_from_json_dict(_load_json_input(args.infile))
    system = phi(dec)
    result = dict(necs_to_json_dict(system), lcm=necs_lcm(system))
    _emit(args.format, _necs_text(system), "phi", {"in": args.infile}, "recursion", result)
    return 0


def _cmd_psi(args) -> int:
    from .geometry import decomposition_to_json_dict
    from .trees import parse_tree, psi

    data = _load_json_input(args.infile)
    if not isinstance(data, dict):
        raise ValueError('psi input must be a JSON object {"d": D, "tree": T}')
    try:
        d, raw = data["d"], data["tree"]
    except KeyError as exc:
        raise ValueError(f"malformed psi input: missing field {exc}") from None
    if type(d) is not int:
        raise ValueError(f"psi needs an integer d, got {d!r}")
    if isinstance(raw, str):
        tree = parse_tree(raw)
    else:
        from .trees import tree_from_json  # loads _oracles, which the text form does not

        tree = tree_from_json(raw)
    dec = psi(tree, d)
    _emit(args.format, _decomposition_text(dec), "psi", {"in": args.infile}, "recursion",
          decomposition_to_json_dict(dec))
    return 0


def _cmd_growth(args) -> int:
    from .asymptotics import find_saddle

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
    from .lcm_counts import g_count, h_count

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

# The suites of `_verify.SUITES`, in their order; `--suite` offers these and "all".
SUITE_NAMES = ("tables", "oracles", "bijection", "asymptotics")


def __getattr__(name: str):
    # cli.SUITES and the frozen tables (cli.S_TABLE, ...) that bench/make_references.py
    # reads load on first read; other names, dunders included, never load the suites
    if name.isupper():
        from . import _verify
        if hasattr(_verify, name):
            return getattr(_verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    p.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
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
    except (ValueError, ArithmeticError, OSError, KeyError, RecursionError) as exc:
        print(f"cubedecomp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
