"""Command line interface: record schema, formats, exit codes, determinism."""

import ast
import contextlib
import errno
import hashlib
import io
import json
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cubedecomp
from cubedecomp import _commands, cli, number_theory, series
from cubedecomp.number_theory import mobius_d
from cubedecomp.series import decomposition_counts, refined_counts, series_from_list


def run(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def records(out):
    return [json.loads(line) for line in out.splitlines()]


def one_line_error(capsys, argv, stdin=None, monkeypatch=None):
    """Run argv expecting exit 1 with nothing on stdout and one error line on stderr."""
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "Traceback" not in captured.err
    assert captured.err.startswith("cubedecomp: error: ") and captured.err.count("\n") == 1


def test_mu_csv_golden(capsys):
    code, out = run(capsys, "mu", "--d", "3", "--n", "1..8", "--format", "csv")
    assert code == 0
    assert out == "1,-3,-3,3,-3,9,-3,-1\n"


def test_mu_json_records(capsys, monkeypatch):
    code, out = run(capsys, "mu", "--d", "3", "--n", "1..3")
    assert code == 0
    recs = records(out)
    assert [r["result"] for r in recs] == [
        {"n": 1, "value": "1"},
        {"n": 2, "value": "-3"},
        {"n": 3, "value": "-3"},
    ]
    for r in recs:
        assert r["schema"] == "cubedecomp.v1"
        assert r["command"] == "mu"
        assert r["provenance"] == "recursion"
    # canonical serialization: sorted keys, no whitespace
    assert out.splitlines()[0] == json.dumps(
        recs[0], sort_keys=True, separators=(",", ":")
    )
    # a dense range and a sparse high one are both read off one segmented sieve;
    # neither takes a point query or a table over 1..hi
    def refuse(*args):
        raise AssertionError(f"mu took a second path {args}")

    sieve, segments = number_theory._mobius_d_segment, []
    monkeypatch.setattr(number_theory, "_mobius_d_segment",
                        lambda d, lo, hi: segments.append((lo, hi)) or sieve(d, lo, hi))
    for name in ("mobius_d", "mobius_d_values"):  # mu reads each function from its home
        monkeypatch.setattr(number_theory, name, refuse)  # module when it runs
    for lo, hi in ((1, 2000), (20000000, 20000020)):
        code, out = run(capsys, "mu", "--d", "3", "--n", f"{lo}..{hi}")
        assert code == 0
        assert [r["result"] for r in records(out)] == [
            {"n": n, "value": str(mobius_d(3, n))} for n in range(lo, hi + 1)
        ]
    assert segments == [(1, 2000), (20000000, 20000020)]


def test_seq_tables(capsys):
    code, out = run(capsys, "seq", "sd", "--d", "2", "--max-n", "5",
                    "--format", "csv")
    assert (code, out) == (0, "1,2,10,59,394\n")
    code, out = run(capsys, "seq", "ad", "--d", "1", "--max-n", "4",
                    "--format", "csv")
    assert (code, out) == (0, "1,1,2,3,6\n")
    code, out = run(capsys, "seq", "td", "--d", "1", "--max-n", "4",
                    "--format", "csv")
    assert (code, out) == (0, "1,1,3,11\n")


def test_refined_counts_command(capsys):
    code, out = run(capsys, "refined", "--d", "1", "--r", "2", "--max-n", "4",
                    "--format", "csv")
    # n = 1..4: exact-gcd-2 decompositions (quarters and thirds excluded at 4)
    assert (code, out) == (0, "0,1,2,6\n")


@pytest.mark.parametrize("args, command, params, provenance, values", [
    (("seq", "sd", "--d", "2", "--max-n", "30"), "seq",
     {"kind": "sd", "d": 2, "max_n": 30}, "series", decomposition_counts(2, 30)[1:]),
    (("refined", "--d", "2", "--r", "2,1", "--max-n", "12"), "refined",
     {"d": 2, "r": [2, 1], "max_n": 12}, "series", refined_counts(2, (2, 1), 12)[1:]),
    (("mu", "--d", "1", "--n", "1..50"), "mu",
     {"d": 1, "n": "1..50"}, "recursion", [mobius_d(1, n) for n in range(1, 51)]),
])
def test_table_rows_are_canonical_records(capsys, args, command, params, provenance, values):
    code, out = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == [
        cli._record(command, params, provenance, {"n": n, "value": str(v)})
        for n, v in enumerate(values, start=1)
    ]


def test_big_integers_survive_as_strings(capsys):
    code, out = run(capsys, "seq", "sd", "--d", "3", "--max-n", "40")
    assert code == 0
    last = records(out)[-1]["result"]
    value = int(last["value"])
    assert value > 10**38
    assert last["value"] == str(value)


def test_output_is_byte_deterministic(capsys):
    args = ("growth", "--d", "1..3")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    for r in records(first):
        assert r["provenance"] == "saddle"


def test_growth_record_content(capsys):
    code, out = run(capsys, "growth", "--d", "2..2")
    assert code == 0
    (rec,) = records(out)
    result = rec["result"]
    assert result["d"] == 2
    assert result["growth_rate"] == pytest.approx(9.5042948, abs=1e-6)
    assert result["excess"] == pytest.approx(0.0042948, abs=1e-6)
    assert result["truncation_order"] == 64


def test_lcm_count_commands(capsys):
    code, out = run(capsys, "lcm-count", "h", "--n", "1..8", "--format", "csv")
    assert (code, out) == (0, "1,1,1,3,1,9,1,21\n")
    code, out = run(capsys, "lcm-count", "g", "--r", "2,3")
    (rec,) = records(out)
    assert (code, rec["result"]) == (0, {"r": [2, 3], "value": "12"})


def test_enum_decomp_csv(capsys):
    code, out = run(capsys, "enum", "decomp", "--d", "1", "--n", "3",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "0:1/4 1/4:1/2 1/2:1",
        "0:1/3 1/3:2/3 2/3:1",
        "0:1/2 1/2:3/4 3/4:1",
    ]


def test_enum_necs_matches_count(capsys):
    code, out = run(capsys, "enum", "necs", "--n", "4")
    assert code == 0
    recs = records(out)
    assert len(recs) == 10
    assert all(r["provenance"] == "enumeration" for r in recs)


def test_enum_emit_writes_objects(tmp_path, capsys):
    target = tmp_path / "objs.jsonl"
    code, out = run(capsys, "enum", "trees", "--d", "2", "--n", "3",
                    "--emit", str(target))
    assert code == 0
    (rec,) = records(out)
    assert rec["result"]["count"] == 10
    lines = target.read_text().splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["d"] == 2 for line in lines)


def test_enum_cap_exit_code(capsys):
    code, out = run(capsys, "enum", "decomp", "--d", "2", "--n", "8")
    assert code == 3


def test_enum_necs_requires_dimension_one(capsys):
    code, out = run(capsys, "enum", "necs", "--d", "2", "--n", "3")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["enum", "necs", "--n", "0"], "--n must be >= 1, got 0"),
    (["enum", "decomp", "--d", "2", "--n", "-1"], "--n must be >= 1, got -1"),
    (["enum", "trees", "--d", "0", "--n", "3"], "--d must be >= 1, got 0"),
])
def test_enum_errors_name_the_option(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"cubedecomp: error: {message}\n")


def test_phi_command(tmp_path, capsys):
    payload = {
        "d": 1,
        "regions": [[["0", "1/4"]], [["1/4", "1/2"]], [["1/2", "1"]]],
    }
    src = tmp_path / "dec.json"
    src.write_text(json.dumps(payload))
    code, out = run(capsys, "phi", "--in", str(src))
    assert code == 0
    (rec,) = records(out)
    assert rec["result"]["classes"] == [
        {"a": 1, "n": 2}, {"a": 0, "n": 4}, {"a": 2, "n": 4},
    ]
    assert rec["result"]["lcm"] == 4


def test_phi_reads_stdin(capsys, monkeypatch):
    payload = {"d": 1, "regions": [[["0", "1/2"]], [["1/2", "1"]]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code, out = run(capsys, "phi", "--in", "-", "--format", "csv")
    assert (code, out) == (0, "0(2) 1(2)\n")


@pytest.mark.parametrize("command, payload", [
    ("phi", {"d": 1, "regions": 5}),
    ("phi", {"d": 1, "regions": [[["0", "1/2"]]]}),
    ("psi", [1, 2]),
    ("phi", {"d": 1, "regions": [[["0", "1/3"]], [["1/3", "1/2"]], [["1/2", "1"]]]}),
    ("phi", {"d": 1, "regions": [[["0", "1/2"]], [["0", "1/2"]], [["1/2", "1"]]]}),
    ("phi", {"d": 1.5, "regions": [[["0", "1/2"]], [["1/2", "1"]]]}),
    ("phi", {"d": True, "regions": [[["0", "1/2"]], [["1/2", "1"]]]}),
    ("phi", {"d": "1", "regions": [[["0", "1/2"]], [["1/2", "1"]]]}),
    ("phi", {"d": 1, "regions": [[[False, True]]]}),
    ("phi", {"d": 1, "regions": [[[0, 0.5]], [[0.5, True]]]}),
    ("phi", {"d": 1, "regions": [[[0, 0.5]], [[0.5, 1]]]}),
    ("phi", {"d": 1, "regions": [[["0", "1/0"]]]}),
])
def test_malformed_json_input_exits_one(capsys, monkeypatch, command, payload):
    one_line_error(capsys, [command, "--in", "-"], json.dumps(payload), monkeypatch)


@pytest.mark.parametrize("command, payload, field", [
    ("phi", {"regions": [[["0", "1"]]]}, "d"),
    ("phi", {"d": 1}, "regions"),
    ("psi", {"tree": "L"}, "d"),
    ("psi", {"d": 1}, "tree"),
])
def test_missing_json_field_is_named(capsys, monkeypatch, command, payload, field):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main([command, "--in", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cubedecomp: error: ") and err.endswith(f"missing field '{field}'\n")


@pytest.mark.parametrize("d, tree", [
    (None, "L"), ([1], "L"), ("x", "L"), (0, "L"),
    (2.9, "(2 L L)"), (True, "(1 L L)"), ("2", "(2 L L)"),
], ids=["None", "d1", "x", "0", "float", "bool", "string"])
def test_psi_rejects_bad_dimension(capsys, monkeypatch, d, tree):
    # only a JSON integer is a dimension: 2.9, true and "2" are not read as 2, 1 and 2
    one_line_error(capsys, ["psi", "--in", "-"], json.dumps({"d": d, "tree": tree}), monkeypatch)


def test_psi_deep_tree(capsys, monkeypatch):
    depth = 3000
    text = "L"
    for _ in range(depth):
        text = f"(1 L {text})"
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"d": 1, "tree": text})))
    code, out = run(capsys, "psi", "--in", "-")
    assert code == 0
    (rec,) = records(out)
    regions = rec["result"]["regions"]
    assert len(regions) == depth + 1
    assert regions[:2] == [[["0", "1/2"]], [["1/2", "3/4"]]]
    assert regions[-1] == [[f"{2 ** depth - 1}/{2 ** depth}", "1"]]
    # the JSON reader itself is recursive: a deep tree in list form is a usage error
    deep_list = '{"d": 1, "tree": ' + '[1, "L", ' * depth + '"L"' + "]" * depth + "}"
    one_line_error(capsys, ["psi", "--in", "-"], deep_list, monkeypatch)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_growth_rejects_tol_that_is_not_finite_and_positive(capsys, tol):
    one_line_error(capsys, ["growth", "--d", "1", f"--tol={tol}"])


def test_growth_rejects_tol_that_bisection_cannot_reach(capsys):
    # |M_1'| at the last binary64 midpoint is about 2e-16
    one_line_error(capsys, ["growth", "--d", "1", "--tol", "1e-17"])


@pytest.mark.parametrize("k", ["17", "40", "70"])
def test_growth_rejects_k_beyond_the_limit(capsys, k):
    # the table holds 2^k - 1 terms: k = 40 ran out of memory, k = 70 overflowed
    one_line_error(capsys, ["growth", "--d", "1", "--k", k])


@pytest.mark.parametrize("d", ["95062", "95062..95062", str(10**21)])
def test_growth_past_what_binary64_certifies_exits_one(capsys, d):
    # from d = 95062 up M_d' at the bracket's right end rounds to a value that
    # certifies no sign
    one_line_error(capsys, ["growth", "--d", d])


def test_growth_at_the_last_certified_d_keeps_its_bytes(capsys):
    code, out = run(capsys, "growth", "--d", "95061")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b302d4e4cc71c7e65d74f871254cd9127afb8c76e22906f0db99835951772845")


def test_psi_rejects_boolean_label(capsys, monkeypatch):
    one_line_error(capsys, ["psi", "--in", "-"], '{"d":1,"tree":[true,"L","L"]}', monkeypatch)


def test_psi_command(tmp_path, capsys):
    src = tmp_path / "tree.json"
    src.write_text(json.dumps({"d": 2, "tree": "(2 L L L)"}))
    code, out = run(capsys, "psi", "--in", str(src), "--format", "csv")
    assert code == 0
    assert out == "0:1x0:1/3 0:1x1/3:2/3 0:1x2/3:1\n"


def test_psi_accepts_json_tree_form(tmp_path, capsys):
    src = tmp_path / "tree.json"
    src.write_text(json.dumps({"d": 1, "tree": [1, "L", "L"]}))
    code, out = run(capsys, "psi", "--in", str(src))
    assert code == 0
    (rec,) = records(out)
    assert rec["result"]["regions"] == [[["0", "1/2"]], [["1/2", "1"]]]


def test_verify_suites_pass(capsys):
    code, out = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    recs = records(out)
    assert all(r["result"]["status"] == "pass" for r in recs[:-1])
    assert recs[-1]["result"]["failed"] == 0
    assert recs[-1]["result"]["total"] == len(recs) - 1


VERIFY_CHECKS = [
    ("tables", "mu-closed-form-vs-convolution", "series"),
    ("tables", "mu-tables", "series"),
    ("tables", "count-tables", "series"),
    ("tables", "series-round-trip", "series"),
    ("tables", "dual-reversion-agreement", "series"),
    ("tables", "tree-count-tables", "series"),
    ("tables", "lcm-count-tables", "recursion"),
    ("tables", "growth-goldens", "saddle"),
    ("oracles", "decomposition-enumeration-counts", "enumeration"),
    ("oracles", "necs-enumeration-counts", "enumeration"),
    ("oracles", "refined-counts-vs-enumeration", "enumeration"),
    ("oracles", "tree-enumeration-counts", "enumeration"),
    ("oracles", "prime-set-cardinalities", "enumeration"),
    ("oracles", "sequence-signed-sums", "enumeration"),
    ("oracles", "reduced-counts-line", "enumeration"),
    ("oracles", "lcm-count-oracle", "enumeration"),
    ("bijection", "covering-map-bijective", "enumeration"),
    ("bijection", "covering-map-preserves-gcd-lcm", "enumeration"),
    ("bijection", "tree-map-onto", "enumeration"),
    ("bijection", "tree-map-collisions", "enumeration"),
    ("bijection", "ratio-injection", "enumeration"),
    ("asymptotics", "saddle-certification", "saddle"),
    ("asymptotics", "growth-bounds", "saddle"),
    ("asymptotics", "series-ratio-consistency", "saddle"),
    ("asymptotics", "truncation-stability", "saddle"),
]


def test_verify_all_reports_every_check_in_order(capsys):
    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0
    recs = records(out)
    assert [(r["result"]["suite"], r["result"]["check"], r["provenance"])
            for r in recs[:-1]] == VERIFY_CHECKS
    assert all(r["result"]["status"] == "pass" for r in recs[:-1])
    assert recs[-1]["result"] == {"total": 25, "failed": 0}


# One wrong entry in each frozen table: (table, key or index, new entry, the check it breaks)
CORRUPTIONS = [
    ("MU_TABLE", 2, [1, -2, -2, 1, -2, 4, -2, 0, 1, 4, -2, -2, -2, 4, 5], "mu-tables"),
    ("S_TABLE", 2, [1, 2, 10, 59, 999], "count-tables"),
    ("A_TABLE", 3, [1, 3, 12, 42, 156, 558, 2028, 7318, 26490, 95730, 346219], "count-tables"),
    ("G_ROW", 5, 13, "lcm-count-tables"),
    ("H_ROW", 15, 652, "lcm-count-tables"),
    ("SCHROEDER", 6, 904, "tree-count-tables"),
    ("GROWTH_EXCESS", 3, 0.00718, "growth-goldens"),
]


@pytest.mark.parametrize("table, key, entry, check", CORRUPTIONS,
                         ids=[c[0] for c in CORRUPTIONS])
def test_verify_failure_exit_code(capsys, monkeypatch, table, key, entry, check):
    from cubedecomp import _verify

    corrupted = getattr(_verify, table).copy()
    corrupted[key] = entry
    monkeypatch.setattr(_verify, table, corrupted)
    code, out = run(capsys, "verify", "--suite", "tables")
    assert code == 2
    recs = records(out)
    assert [r["result"]["check"] for r in recs if r["result"].get("status") == "fail"] == [check]
    assert recs[-1]["result"]["failed"] == 1


def test_suite_names_are_the_suites_in_order(capsys):
    # --suite offers cli.SUITE_NAMES without loading the suites, and verify --suite all
    # runs them in that order: the tuple and the suites must not drift apart
    from cubedecomp import _verify

    assert cli.SUITE_NAMES == tuple(_verify.SUITES)
    code, out = run(capsys, "verify", "--help")
    assert code == 0
    assert "{" + ",".join((*_verify.SUITES, "all")) + "}" in out
    # the suites and their frozen tables stay readable through cli
    assert (cli.SUITES, cli.S_TABLE, cli.G_ROW) == (_verify.SUITES, _verify.S_TABLE,
                                                     _verify.G_ROW)
    with pytest.raises(AttributeError):
        cli.NO_SUCH_TABLE


def test_usage_errors_exit_one(capsys):
    assert cli.main(["mu", "--d", "2"]) == 1
    assert cli.main(["mu", "--d", "2", "--n", "five"]) == 1
    assert cli.main(["nonsense"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["refined", "--d", "1", "--r", "", "--max-n", "5"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --r: expected comma-separated integers, got ''\n")


def test_domain_errors_exit_one(capsys):
    assert cli.main(["mu", "--d", "-1", "--n", "1..5"]) == 1
    assert cli.main(["mu", "--d", "-1", "--n", "1..5000"]) == 1
    assert cli.main(["refined", "--d", "2", "--r", "2", "--max-n", "5"]) == 1
    assert cli.main(["refined", "--d", "1", "--r", "2", "--max-n", "-3"]) == 1


def test_threads_flag_accepted(capsys):
    code, out = run(capsys, "mu", "--d", "1", "--n", "1..3", "--threads", "4",
                    "--format", "csv")
    assert (code, out) == (0, "1,-1,-1\n")


def test_console_script_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "cubedecomp.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cubedecomp 0.1.0" in proc.stdout + proc.stderr


@pytest.mark.parametrize("argv", [["seq", "sd", "--d", "2", "--max-n", "300"],
                                  ["growth", "--d", "1..30"],
                                  ["mu", "--d", "1", "--n", "1..3"]])
def test_a_closed_stdout_exits_1_without_a_message(argv):
    # the read end is closed before the command starts, so the first write fails
    # whatever the pipe's buffer size; stdout is block-buffered, so a short output
    # fails only when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run([sys.executable, "-m", "cubedecomp.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_a_broken_pipe_on_the_emit_file_stays_an_error(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(_commands, "open", lambda *args, **kwargs: ClosedPipe(),
                        raising=False)
    code = cli.main(["enum", "decomp", "--d", "1", "--n", "3", "--emit", "fifo"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "cubedecomp: error: cannot write fifo: Broken pipe\n"


REFERENCES = json.loads((Path(__file__).resolve().parents[1] / "bench" / "references.json")
                        .read_text(encoding="utf-8"))
TABLE_COMMANDS = sorted(c for c, ref in REFERENCES.items() if ref["workload"] == "tables-cold")


def test_table_commands_are_all_checked():
    assert len(TABLE_COMMANDS) == 9


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_command_bytes_match_references(capsys, command):
    # the same bytes the benchmark checks each table command against
    code = cli.main(shlex.split(command))
    out = capsys.readouterr().out.encode("utf-8")
    ref = REFERENCES[command]
    assert code == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == (ref["stdout_bytes"],
                                                           ref["stdout_sha256"])


# Full stdout digests of commands whose output the enumeration oracles and the
# structural maps produce; they do not change when the representation does.
ORACLE_COMMAND_SHA256 = {
    "enum decomp --d 2 --n 5":
        "78f95c125545737ac1c3d51427f061d16058952150458cd7c136789cbbaaafcd",
    "enum decomp --d 2 --n 5 --format csv":
        "7cfdce9b0e74b9265670592550357b4888f2c52758b4cc044ea48fd25c9d5754",
    "enum decomp --d 1 --n 7":
        "7a5a167ce833bc5caf012facff9fdf166a55f9c16aec645f63551e4709e36ac9",
    "enum decomp --d 3 --n 4 --format csv":
        "03e60e67108b695b57efb0d7b420023404024a3fc7c611b44c119e0625217ff4",
    "verify --suite all":
        "d59c0213b0700060dc2646015715c6c6b7652ddda3e32ae493b81badfd06e05d",
    "verify --suite all --format csv":
        "dcac900f313a2a641deec4990602ac8da3d8a15f4062f7a1be10b3c87291c46b",
}


@pytest.mark.parametrize("command", sorted(ORACLE_COMMAND_SHA256))
def test_oracle_command_bytes_are_pinned(capsys, command):
    assert cli.main(shlex.split(command)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == ORACLE_COMMAND_SHA256[command]


def run_module(argv, stdin=""):
    """`python -m cubedecomp.cli ARGV` in a fresh interpreter: (exit code, stdout, stderr).
    Under -m the package root binds its names on first read, not at import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "cubedecomp.cli", *argv], input=stdin,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", ["verify --suite all", "enum decomp --d 2 --n 5"])
def test_oracle_commands_print_the_pinned_bytes_in_a_fresh_process(command):
    code, out, err = run_module(shlex.split(command))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ORACLE_COMMAND_SHA256[command]


EMPTY = hashlib.sha256(b"").hexdigest()
# What the parser prints for help, the version and usage errors, as (exit code, sha256 of
# stdout, of stderr) at 80 columns.  The parser gives arguments only to the command that
# the command line names, so each command's help and usage must still list all of its own.
HELP_SURFACE = {
    "--help":
        (0, "f84d918dc31329c18ac0e8a93d03a1736a7a21e572d130eb91cf7fa12131d97f", EMPTY),
    "--version":
        (0, "5ae48ddf0477cd8e5b2915e95bcef31170a67a13eb43c44e432e2e8dd0f8b644", EMPTY),
    "mu --help":
        (0, "1014d2518147a8034d04d78366099b9fa96d25fdd28c8dfda55a6ffbaf6e27b8", EMPTY),
    "seq --help":
        (0, "6eaed2bc9f154caf9359d481ca0674e56512d7f54355279ba5345d7cea085684", EMPTY),
    "refined --help":
        (0, "8cf9f727cc85cca1145e0aacb95c1688343c2c4b855a6d1e09305c8b3fc1cd68", EMPTY),
    "enum --help":
        (0, "abbd01f8068ad4c23fc65f1f64cc63974be8ddcfc4ebe5c5d1051201bb8dc0f1", EMPTY),
    "phi --help":
        (0, "38a03b9ab2871a86bc616713b3dc099105a48f452ac391ce1deb14999c40140a", EMPTY),
    "psi --help":
        (0, "4f8a134bb8d87744fafcc03d5d3100d26d333dae87dea19b0b501d7e76bc5c5b", EMPTY),
    "growth --help":
        (0, "7effd7af041f4cbf4f7adeceab8f375da0b0bd782401e567bb89d1b642c98207", EMPTY),
    "lcm-count --help":
        (0, "4e8dd48b9e1d78003847544089b3689e1d71f0153bd9b107c4431f1e469e811b", EMPTY),
    "verify --help":
        (0, "f16a303747a78ddd23287af1e84460ccbbf585fc41fe48e6e9e86e4556c605cf", EMPTY),
    "":
        (1, EMPTY, "8de3ad88566c6df16aeb16db10f0fb78db07403f934363e69bc501e67bd31a5d"),
    "seq":
        (1, EMPTY, "d1096e058b20041ff43b1a3b4bf0c759dbb1eef82fc12df724bee7b58e9e1d29"),
    "bogus":
        (1, EMPTY, "fefbb8d23c63606c842847ff1d2040f4920addc5bac0bda8ee062e3fd45777bf"),
    "seq sd --d 1":
        (1, EMPTY, "9bc371986de6c32fcfc12de167d32ea9ec2ef78a8d15fb6f664a8b6fffa12bf2"),
    "--format csv seq sd --d 1 --max-n 3":  # a subcommand's option before the command
        (1, EMPTY, "4ba2cdc4d54e8a044824aac992c4e49373062e18eb6bf2b1e3b9a59cbdd0347e"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests are of CPython 3.11's argparse layout")
@pytest.mark.parametrize("command", list(HELP_SURFACE))
def test_the_help_and_the_usage_errors_print_the_pinned_bytes(command):
    proc = subprocess.run([sys.executable, "-m", "cubedecomp.cli", *command.split()],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
                               "COLUMNS": "80"})
    digests = [hashlib.sha256(stream).hexdigest() for stream in (proc.stdout, proc.stderr)]
    assert (proc.returncode, *digests) == HELP_SURFACE[command]


@pytest.mark.parametrize("command, payload", [
    ("phi", {"d": 1, "regions": [[["0", "1/4"]], [["1/4", "1/2"]], [["1/2", "3/4"]],
                                 [["3/4", "1"]]]}),
    ("psi", {"d": 3, "tree": [1, "L", [2, "L", "L", "L"]]}),
])
def test_phi_and_psi_print_in_a_fresh_process_what_they_print_in_process(
        capsys, monkeypatch, command, payload):
    text = json.dumps(payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_module([command, "--in", "-"], text)
    assert (code, out, err) == (*run(capsys, command, "--in", "-"), "") and code == 0


# Full stdout digests of series tables past the benchmark sizes, as the
# schoolbook product printed them; both refined tables carry a signed weight.
LARGE_SERIES_SHA256 = {
    "seq sd --d 3 --max-n 200":
        "aa563c5e833af568df8486dfaa30f4eab5909d5d4e841e9c41a307b1e5a099eb",
    "refined --d 1 --r 3 --max-n 150":
        "8d3fc12d3b89746b073f894eb3a5dbb138d309b426d037dae6142e8a06e9943e",
    "refined --d 2 --r 2,1 --max-n 60 --format csv":
        "ff2916b2b5bc4448b4e5fa11a6b16bbc29a465a4074f890b5d0d0d2c1e76b38a",
}


@pytest.mark.parametrize("command", sorted(LARGE_SERIES_SHA256))
def test_large_series_bytes_are_pinned(capsys, command):
    assert cli.main(shlex.split(command)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == LARGE_SERIES_SHA256[command]


# Full stdout digests of mu ranges as a table over 1..B (the first) and per-value
# point queries (the rest) printed them; 4194304 = 2^22 is where the point query
# started to scan for a cofactor's factors.
MU_RANGE_SHA256 = {
    "mu --d 2 --n 1000000..1040000":
        "618757d4a6958fb7fb0ed1f102493a98660a51c8b04d1222be08750630a6e887",
    "mu --d 3 --n 20000000..20000500":
        "015b2d66e04059a51ac754a692e6c49dd9dc99b0263cace348444ab59c30d030",
    "mu --d 1 --n 4190000..4200000 --format csv":
        "78bb0142a290bebeb4cb6d7e8591bf2cf8058d12f2490cc098e22baf8b75051d",
    "mu --d 2 --n 1000000000000..1000000000200":
        "905e6cc235d8916183726ee87a499421e3b3906376016b352dd7c4be9045415d",
}


@pytest.mark.parametrize("command", sorted(MU_RANGE_SHA256))
def test_mu_range_bytes_are_pinned(capsys, command):
    assert cli.main(shlex.split(command)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == MU_RANGE_SHA256[command]


# --n past mu's width cap, past its root cap, and the same ranges at the caps
WIDTH, ROOT = cli.MU_CAPS["width"], cli.MU_CAPS["root"]
MU_PAST_CAPS = [(f"7..{7 + WIDTH}", WIDTH + 1, 1000), (str((ROOT + 1) ** 2), 1, ROOT + 1)]
MU_AT_CAPS = [f"7..{6 + WIDTH}", str((ROOT + 1) ** 2 - 1)]


@pytest.mark.parametrize("n, width, root", MU_PAST_CAPS)
def test_mu_caps_exit_three_before_sieving(capsys, monkeypatch, n, width, root):
    def refuse(*args):
        raise AssertionError("the sieve ran past the cap")

    monkeypatch.setattr(number_theory, "_mobius_d_segment", refuse)
    code = cli.main(["mu", "--d", "2", "--n", n])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (f"cubedecomp: resource cap: --n {n if '..' in n else f'{n}..{n}'} "
                            f"holds {width} values sieved by the primes up to {root}, "
                            f"over the caps {WIDTH} and {ROOT}; pass --allow-large to override\n")


def test_allow_large_passes_the_mu_caps(capsys, monkeypatch):
    calls = []

    def zeros(d, lo, hi):  # stands in for the large sieve
        calls.append(hi - lo + 1)
        return [0] * (hi - lo + 1)

    monkeypatch.setattr(number_theory, "_mobius_d_segment", zeros)
    argvs = [[n] for n in MU_AT_CAPS] + [[n, "--allow-large"] for n, _, _ in MU_PAST_CAPS]
    for extra in argvs:
        code, out = run(capsys, "mu", "--d", "2", "--format", "csv", "--n", *extra)
        assert code == 0 and set(out.strip().split(",")) == {"0"}
    assert calls == [WIDTH, 1, WIDTH + 1, 1]


# (argv without --max-n, cap kind, the function the command computes with)
TABLE_CAPS = [
    (["seq", "sd", "--d", "1"], "sd", "decomposition_counts"),
    (["seq", "ad", "--d", "1"], "ad", "auxiliary_counts"),
    (["seq", "td", "--d", "1"], "td", "tree_counts"),
    (["refined", "--d", "1", "--r", "2"], "refined", "refined_counts"),
]


@pytest.mark.parametrize("argv, kind, compute", TABLE_CAPS)
def test_max_n_cap_exits_three_before_computing(capsys, monkeypatch, argv, kind, compute):
    def refuse(*args):
        raise AssertionError(f"{compute} ran past the cap")

    monkeypatch.setattr(cubedecomp, compute, refuse)  # the command reads it from the root
    code = cli.main(argv + ["--max-n", str(cli.MAX_N_CAPS[kind] + 1)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (f"cubedecomp: resource cap: --max-n {cli.MAX_N_CAPS[kind] + 1} "
                            f"exceeds cap {cli.MAX_N_CAPS[kind]} for {kind}; "
                            "pass --allow-large to override\n")


@pytest.mark.parametrize("argv, kind, compute", TABLE_CAPS)
def test_allow_large_passes_the_max_n_cap(capsys, monkeypatch, argv, kind, compute):
    calls = []

    def zeros(*args):  # stands in for the large computation
        calls.append(args[-1])
        return series_from_list([0] * (args[-1] + 1)) if kind == "td" else [0] * (args[-1] + 1)

    monkeypatch.setattr(cubedecomp, compute, zeros)
    cap = cli.MAX_N_CAPS[kind]
    for extra in ([str(cap)], [str(cap + 1), "--allow-large"]):
        code, out = run(capsys, *argv, "--max-n", *extra, "--format", "csv")
        assert code == 0 and set(out.strip().split(",")) == {"0"}
    assert calls == [cap, cap + 1]


# Each table's --max-n starts at its first n (0 for ad, 1 for the others) and --d at 1,
# and so do the other commands' lower bounds; cli checks each before it asks the library,
# and before any cap: (argv, the error line after "error: ").
TABLE_BOUNDS = [
    (["seq", "sd", "--d", "1", "--max-n", "0"], "--max-n must be >= 1, got 0"),
    (["seq", "td", "--d", "1", "--max-n", "0"], "--max-n must be >= 1, got 0"),
    (["seq", "ad", "--d", "1", "--max-n", "-1"], "--max-n must be >= 0, got -1"),
    (["refined", "--d", "1", "--r", "2", "--max-n", "0"], "--max-n must be >= 1, got 0"),
    (["seq", "sd", "--d", "0", "--max-n", "3"], "--d must be >= 1, got 0"),
    (["seq", "td", "--d", "-1", "--max-n", "3"], "--d must be >= 1, got -1"),
    (["seq", "ad", "--d", "0", "--max-n", "3"], "--d must be >= 1, got 0"),
    (["refined", "--d", "0", "--r", "2", "--max-n", "3"], "--d must be >= 1, got 0"),
    (["growth", "--d", "0..2"], "--d must be >= 1, got 0"),
    (["lcm-count", "g", "--n", "0..3"], "--n must be >= 1, got 0"),
    (["lcm-count", "h", "--n", "0..20000"], "--n must be >= 1, got 0"),
    (["mu", "--d", "-1", "--n", "1..3"], "--d must be >= 0, got -1"),
    (["mu", "--d", "1", "--n", "0..3"], "--n must be >= 1, got 0"),
    (["mu", "--d", "1", "--n=-5..2000000"], "--n must be >= 1, got -5"),  # and over a cap
    (["growth", "--d", "1", "--k", "0"], "--k must be in 1..16, got 0"),
    (["growth", "--d", "1..3", "--k", "17"], "--k must be in 1..16, got 17"),
    (["growth", "--d", "1", "--tol", "0"], "--tol must be finite and positive, got 0.0"),
    (["growth", "--d", "1", "--tol", "nan"], "--tol must be finite and positive, got nan"),
    (["lcm-count", "g", "--r", "0"], "--r entries must be >= 1, got 0"),
    (["lcm-count", "h", "--r", "2,-1,3"], "--r entries must be >= 1, got -1"),
    (["refined", "--d", "1", "--r", "0", "--max-n", "3"], "--r entries must be >= 1, got 0"),
    (["refined", "--d", "1", "--r", "0", "--max-n", "601"],  # before the cap
     "--r entries must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", TABLE_BOUNDS,
                         ids=[" ".join(argv) for argv, _ in TABLE_BOUNDS])
def test_table_bounds_name_the_option_before_computing(capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("the library was asked before the bounds were checked")

    for compute in [*(compute for _, _, compute in TABLE_CAPS), "find_saddle", "g_count",
                    "h_count"]:
        monkeypatch.setattr(cubedecomp, compute, refuse)
    monkeypatch.setattr(number_theory, "_mobius_d_segment", refuse)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"cubedecomp: error: {message}\n"


@pytest.mark.parametrize("argv, kind, compute", TABLE_CAPS)
def test_each_table_runs_at_its_least_max_n(capsys, argv, kind, compute):
    code, out = run(capsys, *argv, "--max-n", "0" if kind == "ad" else "1", "--format", "csv")
    assert code == 0 and out.strip().isdigit()  # one value: n = 0 for ad, n = 1 otherwise


def test_memory_error_exits_three_with_one_line(capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cubedecomp, "auxiliary_counts", exhaust)
    code = cli.main(["seq", "ad", "--d", "1", "--max-n", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "cubedecomp: out of memory; try a smaller size\n"


def test_arithmetic_error_exits_one_with_one_line(capsys, monkeypatch):
    # a phi < 0, which the packed chains of _lagrange refuse
    monkeypatch.setattr(series, "auxiliary_counts", lambda d, n: [1, -1] + [1] * (n - 1))
    one_line_error(capsys, ["seq", "sd", "--d", "2", "--max-n", "5"])


README_EXAMPLES = re.findall(
    r"\$ echo '(.+)'(?: \\\n)?\s*\| cubedecomp (\w+) --in - --format csv\n\s*(.+)\n",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8"))


def test_readme_shows_the_phi_and_psi_examples():
    assert [command for _, command, _ in README_EXAMPLES] == ["phi", "psi"]


@pytest.mark.parametrize("payload, command, expected", README_EXAMPLES)
def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch, payload, command,
                                                     expected):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert run(capsys, command, "--in", "-", "--format", "csv") == (0, expected + "\n")


def test_seq_td_writes_values_beyond_the_int_digit_limit(capsys):
    # t_3(4000) has about 4570 digits, past the interpreter's default 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "seq", "td", "--d", "3", "--max-n", "4000")
    assert code == 0
    last = json.loads(out[out.rindex("\n", 0, -1) + 1:])["result"]
    assert last["n"] == 4000 and last["value"].isdigit() and len(last["value"]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_csv_values_beyond_the_int_digit_limit_and_the_limit_comes_back(capsys):
    big = 7 * 10**5000
    cli._print_values("seq", {}, "series", "csv", [(1, -big), (2, big)])
    assert capsys.readouterr().out == f"-7{'0' * 5000},7{'0' * 5000}\n"
    if hasattr(sys, "get_int_max_str_digits"):  # Python >= 3.11: input keeps the limit
        with pytest.raises(ValueError):
            int("1" * 5000)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each costs start-up time on every command, and so do fractions (with decimal),
    # the verify suites and the oracles, which no table command uses; compare with what
    # the interpreter (and any site hook) had loaded already, after the package and
    # after the CLI
    code = ("import sys; before = set(sys.modules)\n"
            "unwanted = {'dataclasses', 'inspect', 'fractions', 'decimal', "
            "'cubedecomp._verify', 'cubedecomp._oracles'}\n"
            "import cubedecomp; print(sorted(unwanted & (set(sys.modules) - before)))\n"
            "import cubedecomp.cli; print(sorted(unwanted & (set(sys.modules) - before)))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n[]\n"


# Each function that builds a Fraction imports fractions itself: (call, its repr or
# error text), each in a fresh interpreter that has not loaded fractions.
FRACTION_MAKERS = [
    ("grid_decomposition((1, 2)).regions",
     "(((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 2))), "
     "((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 2), Fraction(1, 1))))"),
    ("unit_region(2)", "((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1)))"),
    ("volume(grid_decomposition((2, 3)))", "Fraction(1, 1)"),
    ("is_exact_cover((ResidueClass(0, 2), ResidueClass(1, 4), ResidueClass(3, 4)))", "True"),
    ("is_exact_cover((ResidueClass(0, 2), ResidueClass(1, 4)))", "False"),
    ("decomposition_from_json_dict({'d': 1, 'regions': [[['0', '0.25']], [['1/4', 1]]]})",
     "Decomposition(d=1, regions=(((Fraction(0, 1), Fraction(1, 4)),), "
     "((Fraction(1, 4), Fraction(1, 1)),)))"),
    ("decomposition_from_json_dict({'d': 1, 'regions': [[['0', '1/0']]]})",
     "ValueError: malformed decomposition JSON: Fraction(1, 0)"),
    ("decomposition_from_json_dict({'d': 1, 'regions': [[['1/2', '3/2']]]})",
     "ValueError: interval (1/2, 3/2) does not satisfy 0 <= lo < hi <= 1"),
    ("decomposition_from_json_dict({'d': 2, 'regions': [[['0', '1/4']]]})",
     "ValueError: region ((0, 1/4)) does not have 2 intervals"),
]


@pytest.mark.parametrize("call, expected", FRACTION_MAKERS, ids=[c for c, _ in FRACTION_MAKERS])
def test_each_fraction_maker_imports_fractions_itself(call, expected):
    code = ("import sys; before = set(sys.modules); from cubedecomp import *\n"
            "assert 'fractions' not in set(sys.modules) - before\n"
            f"try:\n    print(repr({call}))\n"
            "except ValueError as exc:\n    print('ValueError:', exc)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == expected + "\n"


def test_result_classes_are_frozen_values():
    from cubedecomp.asymptotics import SaddleResult, find_saddle
    from cubedecomp.covering import Necs, ResidueClass
    from cubedecomp.geometry import grid_decomposition
    from cubedecomp.series import TruncatedSeries

    saddle = find_saddle(2)
    assert list(saddle.to_json_dict()) == ["d", "s", "M_at_s", "M2_at_s", "growth_rate",
                                           "truncation_order", "tail_bound_used"]
    again = SaddleResult(**saddle.to_json_dict())
    assert again == saddle and list(again.to_json_dict()) == list(saddle.to_json_dict())
    necs = Necs((ResidueClass(1, 2), ResidueClass(0, 2)))
    series = TruncatedSeries((0, 1, -2))
    dec = grid_decomposition((2, 3))
    cases = [(saddle, again, find_saddle(3), "s"),
             (necs, Necs((ResidueClass(0, 2), ResidueClass(1, 2))), Necs(()), "classes"),
             (series, TruncatedSeries((0, 1, -2)), TruncatedSeries((0, 1)), "coeffs"),
             (dec, grid_decomposition((2, 3)), grid_decomposition((3, 2)), "grid")]
    for obj, same, other, name in cases:
        assert obj == same and hash(obj) == hash(same) and obj != other
        assert obj != (getattr(obj, name),)
        assert pickle.loads(pickle.dumps(obj)) == obj
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert necs.classes == (ResidueClass(0, 2), ResidueClass(1, 2))
    assert repr(series) == "TruncatedSeries(coeffs=(0, 1, -2))"
    assert repr(necs) == "Necs(classes=(ResidueClass(a=0, n=2), ResidueClass(a=1, n=2)))"
    assert repr(SaddleResult(1, 0.25, 1.5, -3.0, 5.5, 64, 1e-20)) == (
        "SaddleResult(d=1, s=0.25, M_at_s=1.5, M2_at_s=-3.0, growth_rate=5.5, "
        "truncation_order=64, tail_bound_used=1e-20)")
    assert repr(grid_decomposition((1, 2))) == (
        "Decomposition(d=2, regions=(((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), "
        "Fraction(1, 2))), ((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 2), Fraction(1, 1)))))")
    # the lazy regions slot is no field: it cannot be set or deleted, and reading it
    # changes no equality, hash or pickle
    for name in ("_regions", "regions"):
        with pytest.raises(AttributeError):
            setattr(dec, name, None)
        with pytest.raises(AttributeError):
            delattr(dec, name)
    fresh = grid_decomposition((2, 3))
    assert dec.regions and dec == fresh and fresh == dec and hash(dec) == hash(fresh)
    assert pickle.dumps(dec) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(dec)).regions == dec.regions


def test_frozen_value_code_has_one_home():
    # the base class owns freezing, equality and hashing; a result class that spelled
    # them out again would be a fifth copy to keep in step
    def names(node):  # what a def or an assignment defines
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return {node.name}
        targets = node.targets if isinstance(node, ast.Assign) else []
        return {target.id for target in targets if isinstance(target, ast.Name)}

    src = Path(cli.__file__).resolve().parent
    homes = {path.name
             for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if names(node) & {"__setattr__", "__delattr__", "__eq__", "__hash__"}}
    assert homes == {"_frozen.py"}
    from cubedecomp._frozen import Frozen
    from cubedecomp.asymptotics import SaddleResult
    from cubedecomp.covering import Necs
    from cubedecomp.geometry import Decomposition
    from cubedecomp.series import TruncatedSeries
    classes = (Decomposition, TruncatedSeries, Necs, SaddleResult)
    assert all(issubclass(cls, Frozen) for cls in classes)
    assert [cls for cls in classes if {"__reduce__", "__repr__"} & set(vars(cls))] == [
        Decomposition]


# ---------------------------------------------------------------- whole-CLI property

_JUNK = st.sampled_from(["", "x", "-", "1.5", "nan", "0x3", "1..", "..2", "1,,2", "٣"])


def _mostly(valid, junk=_JUNK):
    """valid as text, or now and then a malformed value."""
    return st.tuples(st.integers(0, 7), valid, junk).map(  # 3: not a boundary Hypothesis favours
        lambda t: t[2] if t[0] == 3 else str(t[1]))


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi))


def _range(lo, hi):
    return _mostly(st.one_of(st.integers(lo, hi), st.tuples(st.integers(lo, hi), st.integers(
        lo, hi)).map("{0[0]}..{0[1]}".format)))


def _vector(lo, hi):
    return _mostly(st.lists(st.integers(lo, hi), min_size=1, max_size=3).map(
        lambda v: ",".join(map(str, v))))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["d", "regions", "tree", "classes"]), inner, max_size=3),
    max_leaves=8)
_ENDPOINT = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/0", "x", 0, 1, True, 0.5, None])
_PHI_INPUT = st.one_of(
    st.sampled_from([  # split generated, not split generated (gcd 1), a 2-d one, overlapping
        {"d": 1, "regions": [[["0", "1/2"]], [["1/2", "3/4"]], [["3/4", "1"]]]},
        {"d": 1, "regions": [[["0", "1/6"]], [["1/6", "1/4"]], [["1/4", "1/3"]],
                             [["1/3", "1/2"]], [["1/2", "3/4"]], [["3/4", "1"]]]},
        {"d": 1, "regions": [[["0", "2/3"]], [["2/3", "1"]]]},
        {"d": 2, "regions": [[["0", "1"], ["0", "1/2"]], [["0", "1"], ["1/2", "1"]]]},
        {"d": 1, "regions": [[["0", "1"]], [["0", "1"]]]},
        {"d": 1, "regions": [[[0, 1]]]}]),
    st.fixed_dictionaries({"d": st.one_of(st.integers(-1, 2), _JSON),
                           "regions": st.lists(st.lists(st.lists(
                               _ENDPOINT, min_size=2, max_size=2), min_size=1, max_size=2),
                               min_size=1, max_size=4)}))
_TREE = st.sampled_from(["L", "(1 L L)", "(2 L L L)", "(1 (1 L L) L)", "(1 (2 L L) (2 L L))",
                         "(0 L L)", "(3 L L)", "(1 L)", "(1 L L", ")", "", "(x L L)",
                         ["L"], [1, "L", "L"], [2, [1, "L", "L"], "L"], [True, "L", "L"]])
_PSI_INPUT = st.fixed_dictionaries({"d": st.one_of(st.integers(1, 3), st.integers(-1, 3), _JSON),
                                    "tree": st.one_of(_TREE, _JSON)})
_STDIN = {command: st.one_of(*[inputs.map(json.dumps)] * 3, _JSON.map(json.dumps),
                             st.text(max_size=12))  # mostly the command's own shape
          for command, inputs in (("phi", _PHI_INPUT), ("psi", _PSI_INPUT))}


ALLOW_LARGE = {  # the commands that take --allow-large
    name for action in cli.build_parser()._subparsers._group_actions
    for name, sub in action.choices.items() if "--allow-large" in sub._option_string_actions}
# mu --n: small, or sparse and high (lo up to 10^9, at most 50 values), or past a cap
_MU_N = st.one_of(_range(-2, 200), _mostly(st.tuples(st.integers(1, 10**9), st.integers(
    0, 49)).map(lambda t: f"{t[0]}..{t[0] + t[1]}")))
_MU_N_PAST_CAP = st.one_of(
    st.integers(-2, 10**9).map(lambda lo: f"{lo}..{lo + cli.MU_CAPS['width']}"),
    st.integers(0, 10**30).map(lambda k: str((cli.MU_CAPS["root"] + 1) ** 2 + k)))


@st.composite
def _invocations(draw):
    """argv of one command with its flags, and stdin.  Sizes stay under the caps
    unless the cap stands (mu --n past one, without --allow-large), so no run
    starts a large computation."""
    command = draw(st.sampled_from(["mu", "seq", "refined", "enum", "phi", "psi", "growth",
                                    "lcm-count", "verify"]))
    past_cap = command == "mu" and draw(st.integers(0, 5)) == 0
    argv = {
        "mu": lambda: ["--d", draw(_ints(-1, 4)),
                       "--n", draw(_MU_N_PAST_CAP if past_cap else _MU_N)],
        "seq": lambda: [draw(st.sampled_from(["sd", "ad", "td", "xd"])),
                        "--d", draw(_ints(-1, 3)), "--max-n", draw(_ints(-2, 30))],
        "refined": lambda: ["--d", draw(_ints(-1, 3)), "--r", draw(_vector(-1, 3)),
                            "--max-n", draw(_ints(-2, 12))],
        "enum": lambda: [draw(st.sampled_from(["decomp", "necs", "trees"])),
                         "--d", draw(_ints(-1, 2)), "--n", draw(_ints(-1, 5))],
        "phi": lambda: ["--in", "-"],
        "psi": lambda: ["--in", "-"],
        "growth": lambda: ["--d", draw(_range(0, 4)),
                           "--tol", draw(_mostly(st.sampled_from(["1e-12", "1e-3", "1e-30"]),
                                                 st.sampled_from(["0", "-1", "nan", "inf"]))),
                           "--k", draw(_ints(-1, 9))],
        "lcm-count": lambda: [draw(st.sampled_from(["g", "h"]))] + [
            a for flag in draw(st.sampled_from([["--r"], ["--n"], ["--r", "--n"], []]))
            for a in (flag, draw(_vector(-1, 4) if flag == "--r" else _range(-2, 30)))],
        "verify": lambda: ["--suite", draw(st.sampled_from(["asymptotics", "nope"]))],
    }[command]()
    if draw(st.booleans()):
        argv += ["--format", draw(_mostly(st.sampled_from(["json", "csv"])))]
    if draw(st.booleans()):
        argv += ["--threads", draw(_ints(-1, 4))]
    if not past_cap and draw(st.integers(0, 7)) in ((1, 2, 3) if command in ALLOW_LARGE
                                                    else (3,)):
        argv.append("--allow-large")
    stdin = draw(_STDIN.get(command, st.just("")))
    return [command, *argv], stdin


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@given(_invocations())
@example((["psi", "--in", "-"], '{"d": null, "tree": "L"}'))  # inputs that once broke
@example((["psi", "--in", "-"], '{"d": 1, "tree": [true, "L", "L"]}'))  # the contract
@example((["phi", "--in", "-"], '{"regions": [[["0", "1"]]]}'))
@example((["growth", "--d", "1", "--tol", "nan"], ""))
@example((["growth", "--d", "95062"], ""))
@example((["growth", "--d", str(10**21)], ""))
def test_generated_command_lines_keep_the_output_contract(invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if "csv" not in argv:
        for line in out.getvalue().splitlines():
            assert json.loads(line, parse_constant=_no_constant)["schema"] == "cubedecomp.v1"
