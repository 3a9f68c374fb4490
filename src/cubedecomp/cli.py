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

This module parses the command line; the caps its help names live in the
package root beside `MAX_K`.  The command bodies and the output helpers live
in `cubedecomp._commands`, which `main` imports once a command line has
parsed, so `--version`, `--help` and a line that fails to parse compile neither
them nor `json`; a parser is built with the arguments of the one command that
its command line names.

Exit codes: 0 success, 1 usage or computation error, 2 verification
failure, 3 resource cap exceeded (see `--allow-large`) or memory exhausted.
"""

import argparse
import os
import sys

from . import (ENUM_CAP, LCM_PRODUCT_CAP, MAX_K, MAX_N_CAPS, MU_CAPS, SUITE_NAMES, __version__,
               _on_first_use)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which is reserved
    # for verification failures here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
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


def _parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------- wiring

# Each command and its one-line help, in the order --help lists them.
COMMANDS = {
    "mu": "signed splitting weights mu_d(n)",
    "seq": "coefficient tables s_d, a_d, t_d",
    "refined": "counts of decompositions refining a grid",
    "enum": "enumerate objects exhaustively",
    "phi": "decomposition -> covering system bijection",
    "psi": "tree -> decomposition map",
    "growth": "growth rates K_d",
    "lcm-count": "counts by refined grid (g) or exact lcm (h)",
    "verify": "run self-check suites",
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    """Give command's parser p its arguments; their help reads the caps from the package root."""
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default: JSON lines)")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="accepted for compatibility; the deterministic "
                        "single-threaded path is always used")
    large = None  # the help of --allow-large, the last argument of each command taking it
    if command == "mu":
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
        large = (f"lift the caps of {MU_CAPS['width']} values and of "
                 f"primes up to {MU_CAPS['root']} (B up to about 10^14)")
    elif command == "seq":
        p.add_argument("kind", choices=("sd", "ad", "td"))
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--max-n", type=int, required=True)
        caps = MAX_N_CAPS
        large = f"lift the --max-n cap (sd {caps['sd']}, ad {caps['ad']}, td {caps['td']})"
    elif command == "refined":
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--r", type=_parse_int_vector, required=True, metavar="R1,..,RD")
        p.add_argument("--max-n", type=int, required=True)
        large = f"lift the --max-n cap {MAX_N_CAPS['refined']}"
    elif command == "enum":
        p.add_argument("target", choices=("decomp", "necs", "trees"))
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--emit", metavar="FILE", help="write one object per line to FILE")
        large = f"lift the {ENUM_CAP}-object cap"
    elif command == "phi":
        p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                       help="decomposition JSON ('-' for stdin)")
    elif command == "psi":
        p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                       help='JSON {"d": D, "tree": "(1 L L)"} (\'-\' for stdin)')
    elif command == "growth":
        p.add_argument("--d", type=_parse_range, required=True, metavar="D1..D2")
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--k", type=int, default=6, help=f"truncation exponent, 1..{MAX_K}")
    elif command == "lcm-count":
        p.add_argument("kind", choices=("g", "h"))
        p.add_argument("--r", type=_parse_int_vector, metavar="R1,..,RD")
        p.add_argument("--n", type=_parse_range, metavar="A..B",
                       help="one-dimensional table over a range")
        large = f"lift the product cap {LCM_PRODUCT_CAP}"
    elif command == "verify":
        p.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
    if large:
        p.add_argument("--allow-large", action="store_true", help=large)


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The parser of every command.  Only the command that argv names gets its arguments,
    or every command when argv is None: what argparse runs is argv's first command name,
    and no output of another command's parser reads that command's arguments."""
    parser = _Parser(prog="cubedecomp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    named = COMMANDS if argv is None else [next((a for a in argv if a in COMMANDS), None)]
    for command, text in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command in named:
            _add_arguments(p, command)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage errors (code 1 via _Parser.error) and
        # --help/--version (code 0) by raising; keep main() total.
        return int(exc.code or 0)
    from . import _commands  # only a command line that parsed compiles the bodies

    try:
        code = getattr(_commands, "_cmd_" + args.command.replace("-", "_"))(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader has gone: exit 1 without a message, and
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # let the exit flush pass
        return 1
    except _commands._ResourceCap as exc:
        print(f"cubedecomp: resource cap: {exc}; pass --allow-large to override",
              file=sys.stderr)
        return 3
    except MemoryError:
        print("cubedecomp: out of memory; try a smaller size", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError, KeyError, RecursionError) as exc:
        print(f"cubedecomp: error: {exc}", file=sys.stderr)
        return 1


# The frozen tables that bench/make_references.py reads load on first read from _verify.
__getattr__ = _on_first_use(globals(), {
    "_verify": ("SUITES", "MU_TABLE", "S_TABLE", "A_TABLE", "G_ROW", "H_ROW", "SCHROEDER",
                "GROWTH_EXCESS")})

if __name__ == "__main__":
    sys.exit(main())
else:
    # A library import (the installed script, a test) loads the bodies at once, as the
    # package root binds its names at once, so no call compiles a module.
    from . import _commands  # noqa: F401
