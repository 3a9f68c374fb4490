"""Benchmark of cubedecomp: cold CLI commands and a warm library session.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

S defaults to run_seconds of BENCHMARK.json.

Run from the root of a checkout (the directory holding src/).  Workloads:

  tables-cold   fresh `python -m cubedecomp.cli` per command, large tables;
  oracles-cold  fresh CLI processes for verify suites and enumerations;
  session-warm  one process per session serving a seeded stream of small
                public-API calls back to back (see mix.json); every session
                of a run serves the same stream.

Every workload is a closed loop with one caller: the next request starts
when the previous one has returned, and at most one child process runs at a
time.  A run repeats a workload's unit (a pass over the command list, or a
session) round(S / nominal seconds) times.  Every output is checked: cold
commands byte for byte against references.json; session responses, after
timing, against the independent oracles in oracle.py, or against the same
request's response in an earlier session of the run that the oracle accepted.

The machine's noise only ever adds time, and it comes and goes within
seconds, so each request's latency is its fastest repetition: the fastest
pass of a cold command, the fastest session of an API call.  On a shared
2-core x86-64 VM the speed also drifted by 20-40% over tens of seconds,
longer than a run, which no statistic within a run removes.  So every time
metric is put at one machine speed: before each command or session the run
also times probe.py, a fixed standard-library task in a fresh interpreter,
and the times are multiplied by PROBE_REF_S / (median probe time of the
run).  The raw times and that factor (machine_speed) are printed on the info
line.

End-to-end metrics (--trace 0):

  setup_s      median of fresh starts to ready (`cli --version` for the cold
               workloads, `import cubedecomp` for session-warm), 30
               (SETUP_STARTS) of them, spread evenly over the commands or
               sessions of the run, each followed by one probe.py;
  wall_s       the sum of the latencies of a pass's commands or a session's
               calls;
  req_p50_ms   their median;
  req_tail_ms  session-warm: their value at the highest percentile with at
               least ten samples beyond it; the percentile and sample count
               are printed.  A cold pass has too few commands for a tail:
               there it is the slowest command's latency;
  peak_rss_mb  the largest ru_maxrss (os.wait4) of a pass's commands, or the
               session process's, median over repetitions.

Requests that exit non-zero, raise, or give a wrong output count as failed;
fail_frac = failed / attempted is printed with the metrics; the result line
carries attempted and failed themselves.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the run
does one untraced and one traced repetition of the same inputs and prints
the per-layer metrics from the spans tracer.py records.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import stream  # noqa: E402
from tracer import COUNTERS, LAYERS  # noqa: E402

WORKLOADS = ("tables-cold", "oracles-cold", "session-warm")

# Seconds of one pass / session, with its share of the set-up starts, at
# commit 20c4dbb on a 2-core x86-64 VM; they fix how many repetitions a run of
# --seconds makes, and so the work done.
NOMINAL_REP_S = {"tables-cold": 4.0, "oracles-cold": 6.0, "session-warm": 4.0}
SETUP_STARTS = 30
# Median seconds of probe.py on that machine when it runs at its quietest
# (0.10-0.14 s over runs there): the speed every time metric is put at.
PROBE_REF_S = 0.10

END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
              "peak_rss_mb": "MB"}
MAX_COUNTERS = ("series.max_bits", "number_theory.max_n", "lcm_counts.max_bits",
                "asymptotics.max_tail")
PER_LAYER = dict(
    [(f"{layer}.{m}", u) for layer in LAYERS for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(name, "bits" if name.endswith("max_bits") else "1" if name.endswith("max_tail")
        else "count") for name in COUNTERS]
    + [("cli.bytes_out", "bytes"), ("trace_overhead_s", "s")])


class SetupError(RuntimeError):
    """The run cannot give a trustworthy result (the program does not start, or
    a layer's spans are missing); the run exits non-zero without a result line."""


# ------------------------------------------------------------ processes


def run_child(argv, env, stdout_path, stderr_path):
    """Run one child to completion; returns (seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024, proc.returncode


class Bench:
    """One benchmark run's environment: the checkout, its temp dir and child env."""

    def __init__(self, root: str, tmp: str):
        self.root = root
        self.tmp = tmp
        # A fixed hash seed keeps set iteration order, and with it cache hits and
        # the traced call counts, the same from run to run.
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")
        self.py = sys.executable
        self.requests = 0  # session length; 0 means the mix's requests_per_session
        self.start_times = []
        self.probe_times = []
        self.starts_per_request = 0.0  # fresh starts timed before each command or session
        self.starts_owed = 0.0
        with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
            self.references = json.load(fh)

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def time_starts(self, workload: str) -> None:
        """Time the starts to ready (CLI --version, or import cubedecomp) due
        before the next command or session into self.start_times."""
        self.starts_owed += self.starts_per_request
        starts = int(self.starts_owed + 1e-9)
        self.starts_owed -= starts
        if workload == "session-warm":
            argv = [self.py, "-c", "import cubedecomp"]
        else:
            argv = [self.py, "-m", "cubedecomp.cli", "--version"]
        for _ in range(starts):
            seconds, _, code = run_child(argv, self.env, self.path("out"), self.path("err"))
            if code != 0:
                self.report_stderr(" ".join(argv[1:]), code)
                raise SetupError("the program does not start")
            self.start_times.append(seconds)
            probe = [self.py, os.path.join(HERE, "probe.py")]
            seconds, _, code = run_child(probe, self.env, self.path("out"), self.path("err"))
            if code != 0:
                self.report_stderr("probe.py", code)
                raise SetupError("the machine-speed probe failed")
            self.probe_times.append(seconds)

    # -------------------------------------------------------- cold

    def cold_ok(self, command: str, code: int) -> bool:
        """Exit 0 and stdout (and any --emit file) identical to the reference."""
        ref = self.references.get(command)
        if code != 0 or ref is None:
            return False
        if _sha256(self.path("out")) != ref["stdout_sha256"]:
            return False
        return "emit_sha256" not in ref or _sha256(stream.EMIT_PATH) == ref["emit_sha256"]

    def cold_pass(self, workload: str, seed: int, index: int, spans: bool = False):
        """One pass over the commands; returns per-command records."""
        records = []
        for k, command in enumerate(stream.cold_pass(workload, seed, index)):
            self.time_starts(workload)
            if os.path.exists(stream.EMIT_PATH):
                os.remove(stream.EMIT_PATH)
            argv = command.split()
            span_file = self.path(f"spans-{k}.pkl") if spans else None
            if spans:
                full = [self.py, os.path.join(HERE, "worker.py"), "cli", "--spans", span_file,
                        "--"] + argv
            else:
                full = [self.py, "-m", "cubedecomp.cli"] + argv
            seconds, rss, code = run_child(full, self.env, self.path("out"), self.path("err"))
            if code != 0:
                self.report_stderr(command, code)
            out_bytes = os.path.getsize(self.path("out"))
            if os.path.exists(stream.EMIT_PATH):
                out_bytes += os.path.getsize(stream.EMIT_PATH)
            records.append({"command": command, "seconds": seconds, "rss": rss,
                            "ok": self.cold_ok(command, code), "bytes_out": out_bytes,
                            "spans": _load_spans(span_file) if spans and os.path.exists(span_file)
                            else None})
        return records

    def report_stderr(self, what: str, code: int) -> None:
        with open(self.path("err"), encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(f"bench: {what} exited {code}:\n{fh.read()[-2000:]}\n")

    # -------------------------------------------------------- warm

    def session(self, seed: int, known=None, spans: bool = False):
        """One session of the seed's stream in a fresh process; returns
        per-request records, its RSS and its spans.  `known` holds accepted
        responses of an earlier session (None where there is none)."""
        self.time_starts("session-warm")
        requests = stream.session_stream(seed, self.requests)
        with open(self.path("stream.json"), "w", encoding="utf-8") as fh:
            json.dump(requests, fh)
        argv = [self.py, os.path.join(HERE, "worker.py"), "session",
                "--stream", self.path("stream.json"), "--out", self.path("session.json")]
        span_file = self.path("spans-session.pkl")
        if spans:
            argv += ["--spans", span_file]
        if os.path.exists(self.path("session.json")):
            os.remove(self.path("session.json"))
        _, rss, code = run_child(argv, self.env, self.path("out"), self.path("err"))
        if code != 0:
            self.report_stderr("session", code)
            return ([{"seconds": 0.0, "ok": False, "response": None} for _ in requests], rss,
                    None)
        with open(self.path("session.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        records = self.check_session(requests, result, known or [None] * len(requests))
        return records, rss, _load_spans(span_file) if spans else None

    def check_session(self, requests, result, known):
        """Per-request records: latency, response, and whether the response is
        right: equal to the accepted one in `known`, or accepted by the oracle."""
        return [{"seconds": s, "response": resp,
                 "ok": (k is not None and resp == k) or oracle.check(req, resp)}
                for req, s, resp, k in zip(requests, result["latencies"], result["responses"],
                                           known)]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_spans(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


# ------------------------------------------------------------ metrics


def tail_percentile(samples):
    """(percentile, value): the highest percentile, in steps of 0.1, that has at
    least ten samples beyond it (nearest rank); None with fewer than 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    for tenths in range(999, 0, -1):
        rank = math.ceil(tenths * n / 1000)
        if n - rank >= 10:
            return tenths / 10, xs[rank - 1]
    return None


def layer_metrics(span_dumps, bytes_out: int):
    """Per-layer calls, self time and counters summed over the traced processes.

    Self time of a span is its duration minus the durations of its direct
    children, so recursive calls (phi, g_count, is_split_generated) count
    each stretch of time once.  Import spans count toward the module's layer.
    """
    metrics = {name: 0 for name in PER_LAYER}
    for dump in span_dumps:
        names, parents = dump["names"], dump["parents"]
        starts, ends = dump["starts"], dump["ends"]
        child = [0.0] * len(names)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.partition(".")[0] for name in dump["span_names"]]
        for i, name_id in enumerate(names):
            key = f"{layer_of[name_id]}.self_s"
            if key in metrics:
                metrics[key] += ends[i] - starts[i] - child[i]
        for layer, calls in dump["calls"].items():
            metrics[f"{layer}.calls"] += calls
        for name, value in dump["counts"].items():
            if name in MAX_COUNTERS:
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
    metrics["cli.bytes_out"] = bytes_out
    return metrics


def run_workload(bench: Bench, workload: str, seed: int, seconds: int, trace: bool):
    """Measure one workload; returns (attempted, failed, metrics, info)."""
    cold = workload != "session-warm"
    reps = 1 if trace else max(1, round(seconds / NOMINAL_REP_S[workload]))
    if not trace:
        slots = reps * (len(stream.COLD_COMMANDS[workload]) if cold else 1)
        bench.starts_per_request = SETUP_STARTS / slots
        bench.start_times, bench.probe_times, bench.starts_owed = [], [], 0.0

    # request (a command, or a call's place in the stream) -> seconds per repetition
    latencies = {}
    walls, rsss, known, attempted, failed = [], [], None, 0, 0
    try:
        for index in range(reps):
            if cold:
                records = bench.cold_pass(workload, seed, index)
                rss = max(r["rss"] for r in records)
                keys = [r["command"] for r in records]
            else:
                records, rss, _ = bench.session(seed, known)
                known = known or [r["response"] if r["ok"] else None for r in records]
                keys = range(len(records))
            for key, r in zip(keys, records):
                latencies.setdefault(key, []).append(r["seconds"])
            walls.append(sum(r["seconds"] for r in records))
            rsss.append(rss)
            attempted += len(records)
            failed += sum(not r["ok"] for r in records)
    finally:
        bench.starts_per_request = 0.0

    info = {"reps": reps}
    if trace:
        if cold:
            records = bench.cold_pass(workload, seed, 0, spans=True)
            dumps = [r["spans"] for r in records if r["spans"] is not None]
            bytes_out = sum(r["bytes_out"] for r in records)
        else:
            records, _, dump = bench.session(seed, known, spans=True)
            dumps, bytes_out = [dump] if dump else [], 0
        if len(dumps) != (len(records) if cold else 1):
            raise SetupError(f"{workload}: a traced process wrote no spans, so layer "
                             "metrics would be missing (see its stderr above)")
        attempted += len(records)
        failed += sum(not r["ok"] for r in records)
        metrics = layer_metrics(dumps, bytes_out)
        metrics["trace_overhead_s"] = sum(r["seconds"] for r in records) - walls[0]
        info["unlisted_public_functions"] = sorted({n for d in dumps for n in d["unlisted"]})
        return attempted, failed, metrics, info

    fastest = sorted(min(v) for v in latencies.values())
    info.update(setup_starts=len(bench.start_times), repetition_wall_s=walls)
    if cold:
        info.update(command_s=latencies, tail_of="slowest command")
        tail = fastest[-1]
    else:
        pct = tail_percentile(fastest)
        if pct is None:
            raise SetupError(f"{workload}: fewer than 11 requests per session for req_tail_ms")
        info.update(tail_percentile=pct[0], tail_samples=len(fastest))
        tail = pct[1]
    raw = {
        "setup_s": statistics.median(bench.start_times),
        "wall_s": sum(fastest),
        "req_p50_ms": statistics.median(fastest) * 1e3,
        "req_tail_ms": tail * 1e3,
    }
    speed = PROBE_REF_S / statistics.median(bench.probe_times)
    info.update(raw_times=raw, machine_speed=speed)
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(rsss)
    return attempted, failed, metrics, info


# ------------------------------------------------------------ output


def machine_info(root: str) -> dict:
    """nproc, Python, the checkout's git SHA when it is a git work tree, and a
    digest of src/ that identifies the measured code either way."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": sha, "src_sha256": digest.hexdigest()}


def run_seconds() -> int:
    """How long one run measures, from BENCHMARK.json beside bench/."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def baseline_lines(workload: str, metrics: dict):
    """Measured value next to the baseline median [q1, q3] of baseline.json."""
    path = os.path.join(HERE, "baseline.json")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)
    rows = base["workloads"].get(workload, {})
    lines = [f"# baseline: commit {base['commit']}, {base['runs']} seeds at --seconds "
             f"{base['seconds']}, {base['machine']}"]
    for name, value in metrics.items():
        ref = rows.get(name)
        if ref:
            lines.append(f"#   {name:28s} {value:14.6g}   baseline {ref['median']:.6g} "
                         f"[{ref['q1']:.6g}, {ref['q3']:.6g}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    # BENCHMARK.json's command is run with --seconds set to its run_seconds,
    # which is also the value used when the flag is left out
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if args.seconds is None:
        args.seconds = run_seconds()
    if not os.path.isfile(os.path.join(root, "src", "cubedecomp", "cli.py")):
        print("bench: run from the root of a cubedecomp checkout (src/cubedecomp not found)",
              file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    print("# " + json.dumps({"workloads": list(names), "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             **machine_info(root)}))
    attempted = failed = 0
    metrics = {}
    try:
        bench = Bench(root, tmp)
        for workload in names:
            a, f, m, info = run_workload(bench, workload, args.seed, args.seconds,
                                         bool(args.trace))
            attempted, failed = attempted + a, failed + f
            info.update(attempted=a, failed=f)
            print(f"# {workload}: " + json.dumps(info))
            for name, value in m.items():
                print(f"{workload:13s} {name:28s} {value:16.6g} {units[name]}")
            print(f"{workload:13s} {'fail_frac':28s} {f / a:16.6g} failed/attempted")
            for line in baseline_lines(workload, m):
                print(line)
            prefix = "" if len(names) == 1 else f"{workload}."
            metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.exists(stream.EMIT_PATH):
            os.remove(stream.EMIT_PATH)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
