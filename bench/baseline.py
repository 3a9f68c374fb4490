"""Measure a baseline: run the benchmark on several seeds and summarise.

    python3 bench/baseline.py [--seeds 1..10] [--trace 0|1|both] [--out FILE]
                              [--raw FILE] [--from-raw FILE] [--commit LABEL]

Runs bench/run.py once per (workload of BENCHMARK.json, seed, trace), one
after another, and prints each metric's median, quartiles and spread (q3 - q1
as a share of the median, next to the bound BENCHMARK.json gives it).  With --out the summary is
written in the format of bench/baseline.json, which run.py prints next to its
own figures.  With --raw every run's result line is kept as JSON lines, so a
summary can be rebuilt with --from-raw without measuring again.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import machine_info, run_seconds  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(seeds, traces, raw_path):
    rows = []
    for trace in traces:
        for seed in seeds:
            for workload in [w["name"] for w in _benchmark()["workloads"]]:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--trace", str(trace)], capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"run.py failed on {workload} seed {seed}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                row = {"workload": workload, "seed": seed, "trace": trace, "result": result}
                rows.append(row)
                if raw_path:
                    with open(raw_path, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(row) + "\n")
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return rows


def _benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarise(rows):
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    values = {}
    for row in rows:
        for name, metric in row["result"]["metrics"].items():
            values.setdefault(row["workload"], {}).setdefault(name, []).append(metric["value"])
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, xs in metrics.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "runs": len(xs)}
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f"  bound {bound}" + ("  OVER bound/3" if spread > bound / 3 else ""))
            print(f"{workload:13s} {name:28s} median {med:14.6g}  spread {spread:7.2%}{flag}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", help="write the summary as a baseline file")
    parser.add_argument("--raw", help="append every run's result to this JSON-lines file")
    parser.add_argument("--from-raw", help="summarise an earlier --raw file instead of measuring")
    parser.add_argument("--commit", help="commit label for --out (default: git SHA)")
    args = parser.parse_args(argv)

    if args.from_raw:
        with open(args.from_raw, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
    else:
        traces = (0, 1) if args.trace == "both" else (int(args.trace),)
        rows = measure(_seeds(args.seeds), traces, args.raw)
    summary = summarise(rows)
    if args.out:
        info = machine_info(os.getcwd())
        runs = max(m["runs"] for w in summary.values() for m in w.values())
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"commit": args.commit or info["git_sha"], "runs": runs,
                       "seconds": run_seconds(),
                       "machine": f"{info['nproc']} cores {info['machine']}, "
                                  f"Python {info['python']}",
                       "src_sha256": info["src_sha256"], "workloads": summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
