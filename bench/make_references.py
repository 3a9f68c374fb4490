"""Regenerate bench/references.json, the frozen outputs of the cold commands.

    python3 bench/make_references.py

Run from the root of a checkout whose outputs are known good.  Each command
runs once through `python -m cubedecomp.cli`; its stdout (and the file
written by --emit) is parsed and cross-checked against an independent oracle
before its SHA-256 is recorded.  The benchmark then compares every cold run
byte for byte with these digests.  Takes under a minute.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import stream  # noqa: E402
from cubedecomp import cli  # noqa: E402
from cubedecomp.number_theory import mobius_d_by_convolution  # noqa: E402
from cubedecomp.series import _revert_by_extraction, decomposition_counts  # noqa: E402
from cubedecomp.trees import enumerate_trees, tree_counts  # noqa: E402

import oracle  # noqa: E402


def _values(lines):
    return [int(json.loads(line)["result"]["value"]) for line in lines]


def _check_seq(argv, lines):
    kind, d, max_n = argv[1], int(argv[3]), int(argv[5])
    values = _values(lines)
    if kind == "sd":
        s = [0] + values
        assert s[1:11] == cli.S_TABLE[d]
        assert s[:41] == _revert_by_extraction(d, 40)
        assert oracle.is_inverse_of_mobius(d, s)
        return "S_TABLE prefix, _revert_by_extraction through n=40, M_d(y(x)) = x through max-n"
    if kind == "ad":
        assert values[:11] == cli.A_TABLE[d]
        assert oracle.table_ok("auxiliary_counts", d, max_n, values)
        return "A_TABLE prefix, M_d(z) * A(z) = z through max-n"
    assert all(len(enumerate_trees(d, n)) == values[n - 1] for n in range(1, 7))
    assert oracle.table_ok("tree_counts", d, max_n, [0] + values)
    return "enumerate_trees counts through n=6, T = x - xT + (d+1)T^2 through max-n"


def _check_refined(argv, lines):
    d, r, max_n = int(argv[2]), tuple(int(x) for x in argv[4].split(",")), int(argv[6])
    values = [0] + _values(lines)
    assert values[:41] == oracle.refined(d, r, 40)
    return "sum_m mu_d(m) y^(P m) with y by coefficient extraction, through n=40"


def _check_mu(argv, lines):
    d = int(argv[2])
    lo, hi = (int(x) for x in argv[4].split(".."))
    assert [0] + _values(lines) == mobius_d_by_convolution(d, hi)[lo - 1:]
    return "mobius_d_by_convolution over the whole range"


def _check_lcm(argv, lines):
    values = _values(lines)
    assert values[:16] == cli.G_ROW
    assert all(values[n - 1] == oracle.g((n,)) for n in range(1, 301))
    return "G_ROW prefix, benchmark's own g recursion through n=300"


def _check_growth(argv, lines):
    for line in lines:
        result = json.loads(line)["result"]
        assert oracle.saddle_ok(result["d"], result)
    return "M_d' sign change around s, growth = 1/M_d(s), goldens for d in {1,2,3,30}"


def _check_verify(argv, lines):
    summary = json.loads(lines[-1])["result"]
    assert summary["failed"] == 0 and summary["total"] == len(lines) - 1
    return "every check passes (each check is itself an oracle comparison)"


def _check_enum(argv, lines, emitted):
    target = argv[1]
    d, n = (int(argv[3]), int(argv[5])) if argv[2] == "--d" else (1, int(argv[3]))
    objs = [json.loads(line) for line in emitted]
    assert len(set(emitted)) == len(objs) == json.loads(lines[0])["result"]["count"]
    if target == "trees":
        assert len(objs) == tree_counts(d, n).coefficient(n)
        return "distinct objects; count equals the tree series coefficient t_d(n)"
    assert len(objs) == decomposition_counts(d, n)[n]
    if target == "decomp":
        assert all(oracle.split_generated(oracle.boxes_of(o)) for o in objs)
        return "distinct split-generated objects; count equals the series s_d(n)"
    return "distinct objects; count equals the series s_1(n)"


CHECKS = {"seq": _check_seq, "refined": _check_refined, "mu": _check_mu,
          "lcm-count": _check_lcm, "growth": _check_growth, "verify": _check_verify}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    os.makedirs(os.path.dirname(stream.EMIT_PATH), exist_ok=True)
    refs = {}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    for workload, commands in stream.COLD_COMMANDS.items():
        for command in commands:
            argv = command.split()
            proc = subprocess.run([sys.executable, "-m", "cubedecomp.cli"] + argv,
                                  capture_output=True, env=env, check=True)
            lines = proc.stdout.decode().splitlines()
            entry = {"workload": workload, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                     "stdout_bytes": len(proc.stdout)}
            if argv[0] == "enum":
                with open(stream.EMIT_PATH, "rb") as fh:
                    data = fh.read()
                entry["emit_sha256"] = hashlib.sha256(data).hexdigest()
                entry["emit_bytes"] = len(data)
                entry["cross_check"] = _check_enum(argv, lines, data.decode().splitlines())
            else:
                entry["cross_check"] = CHECKS[argv[0]](argv, lines)
            entry["source"] = f"python -m cubedecomp.cli {command} at commit {commit}"
            refs[command] = entry
            print(f"{command}: {entry['cross_check']}", file=sys.stderr)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
