"""Child process of the benchmark: one traced CLI command, or one session.

    python3 bench/worker.py cli --spans FILE -- ARGV...
        run cubedecomp.cli.main(ARGV) under the tracer, write spans to FILE,
        exit with main's return code;
    python3 bench/worker.py session --stream FILE --out FILE [--spans FILE]
        import cubedecomp, then serve the request stream in FILE back to back,
        timing each call; with --spans, under the tracer.

The session writes {"latencies": [...], "responses": [...]} to --out.  Each
response is converted to plain JSON after its call's clock has stopped, and
is checked by the parent process, so checking warms no cache in here.
"""

import argparse
import json
import sys
import time


def _response(kind: str, result):
    """Plain-JSON form of a call's result (outside the timed region)."""
    if kind == "mobius_d":
        return result
    if kind == "phi":
        return [[c.a, c.n] for c in result.classes]
    if kind == "gcd_of":
        return list(result)
    if kind == "psi":
        return [[[str(lo), str(hi)] for lo, hi in region] for region in result.regions]
    if kind in ("h_count", "signed_sum"):
        return str(result)
    if kind in ("table", "refined_counts"):
        return [str(v) for v in result]
    if kind == "find_saddle":
        return result.to_json_dict()
    raise ValueError(f"unknown request kind {kind!r}")


def _calls(lib):
    """Request kind -> function of the request args calling the public API."""
    tables = {"decomposition_counts": lambda d, n: lib.decomposition_counts(d, n),
              "auxiliary_counts": lambda d, n: lib.auxiliary_counts(d, n),
              "tree_counts": lambda d, n: lib.tree_counts(d, n).coeffs}
    return {
        "mobius_d": lambda a: [lib.mobius_d(a["d"], n) for n in range(a["lo"], a["hi"] + 1)],
        "phi": lambda a: lib.phi(lib.decomposition_from_json_dict(a["dec"])),
        "gcd_of": lambda a: lib.gcd_of(lib.decomposition_from_json_dict(a["dec"])),
        "psi": lambda a: lib.psi(lib.parse_tree(a["text"]), a["d"]),
        "h_count": lambda a: lib.h_count(tuple(a["r"])),
        "table": lambda a: tables[a["fn"]](a["d"], a["max_n"]),
        "refined_counts": lambda a: lib.refined_counts(a["d"], tuple(a["r"]), a["max_n"]),
        "find_saddle": lambda a: lib.find_saddle(a["d"]),
        "signed_sum": lambda a: lib.signed_sum(a["d"], a["n"]),
    }


def serve(stream, lib):
    """Run every request in order; returns (latencies in seconds, responses).

    A request that raises gets {"error": ...} as its response and counts as
    failed in the parent.
    """
    calls = _calls(lib)
    latencies, responses = [], []
    clock = time.perf_counter
    for request in stream:
        call, args = calls[request["kind"]], request["args"]
        t0 = clock()
        try:
            result = call(args)
        except Exception as exc:  # reported as a failed request, never fatal
            latencies.append(clock() - t0)
            responses.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        latencies.append(clock() - t0)
        responses.append(_response(request["kind"], result))
    return latencies, responses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("session")
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "cli" or args.spans:
        import tracer as tracing
        tracer = tracing.install()

    if args.mode == "cli":
        from cubedecomp import cli
        cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        try:
            code = cli.main(cli_argv)
            sys.stdout.flush()
        finally:
            tracer.dump(args.spans)
        return code

    with open(args.stream, encoding="utf-8") as fh:
        stream = json.load(fh)
    import cubedecomp
    latencies, responses = serve(stream, cubedecomp)
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"latencies": latencies, "responses": responses}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
