"""Self-tests of the benchmark harness.

    python3 bench/selftest.py      (from the root of a checkout; about 30 s)

They check that the harness would notice what it claims to notice: a wrong
output is counted as failed, a seed fixes the request stream, traced counts
repeat exactly, and the tracer refuses to run when a name it wraps is gone.
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402

EXACT = [name for name in run.PER_LAYER
         if name.endswith((".calls", ".objects", ".coeffs", ".sequences", ".evals", "max_bits",
                           "max_n", "bytes_out"))]


class _Corrupting(run.Bench):
    """Flips one byte of every output before the harness checks it."""

    def cold_ok(self, command, code):
        with open(self.path("out"), "r+b") as fh:
            first = fh.read(1)
            fh.seek(0)
            fh.write(bytes([first[0] ^ 1]))
        return super().cold_ok(command, code)

    def check_session(self, requests, result, known):
        result["responses"][0] = ["corrupted"]
        return super().check_session(requests, result, known)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=os.path.join(os.getcwd(), ".bench_tmp"))
        self.saved_commands = dict(stream.COLD_COMMANDS)

    def tearDown(self):
        stream.COLD_COMMANDS.clear()
        stream.COLD_COMMANDS.update(self.saved_commands)
        shutil.rmtree(self.tmp, ignore_errors=True)

    def bench(self, cls=run.Bench, requests=60):
        bench = cls(os.getcwd(), self.tmp)
        bench.requests = requests
        return bench

    def test_corrupted_output_counts_as_failed(self):
        stream.COLD_COMMANDS["tables-cold"] = ["growth --d 1..30"] * 11
        attempted, failed, _, info = run.run_workload(
            self.bench(_Corrupting), "tables-cold", seed=1, seconds=1, trace=False)
        self.assertEqual((attempted, failed), (11, 11))
        attempted, failed, _, _ = run.run_workload(
            self.bench(), "tables-cold", seed=1, seconds=1, trace=False)
        self.assertEqual((attempted, failed), (11, 0))

        records, _, _ = self.bench().session(seed=1)
        known = [r["response"] for r in records]
        for accepted in (None, known):  # checked by the oracle, or against accepted responses
            records, _, _ = self.bench(_Corrupting).session(seed=1, known=accepted)
            self.assertEqual([r["ok"] for r in records], [False] + [True] * (len(records) - 1))

    def test_oracle_rejects_wrong_answers(self):
        request = {"kind": "mobius_d", "args": {"d": 2, "lo": 1400000, "hi": 1400001}}
        right = [oracle.mu_d(2, 1400000), oracle.mu_d(2, 1400001)]
        self.assertTrue(oracle.check(request, right))
        self.assertFalse(oracle.check(request, [right[0], right[1] + 1]))
        self.assertFalse(oracle.check(request, {"error": "ValueError: boom"}))

    def test_same_seed_same_stream(self):
        self.assertEqual(stream.session_stream(7), stream.session_stream(7))
        self.assertNotEqual(stream.session_stream(7), stream.session_stream(8))
        self.assertEqual(stream.cold_pass("oracles-cold", 7, 2),
                         stream.cold_pass("oracles-cold", 7, 2))

    def test_traced_counts_repeat_exactly(self):
        stream.COLD_COMMANDS["tables-cold"] = [
            c for c in stream.TABLES_COLD if c.startswith(("growth", "lcm-count", "seq td"))]
        results = []
        for _ in range(2):
            bench = self.bench()
            records, _, dump = bench.session(seed=3, spans=True)
            self.assertTrue(all(r["ok"] for r in records))
            cold = bench.cold_pass("tables-cold", seed=3, index=0, spans=True)
            self.assertTrue(all(r["ok"] for r in cold))
            dumps = [dump] + [r["spans"] for r in cold]
            metrics = run.layer_metrics(dumps, sum(r["bytes_out"] for r in cold))
            results.append({name: metrics[name] for name in EXACT})
        self.assertEqual(results[0], results[1])
        for name in ("number_theory.calls", "geometry.objects", "series.max_bits",
                     "number_theory.max_n", "cli.bytes_out"):
            self.assertGreater(results[0][name], 0, name)

    def test_recursive_generator_counts_what_its_caller_receives(self):
        code = ("import tracer; t = tracer.install(); import cubedecomp as c; "
                "n = len(c.enumerate_A(2, 5)); "
                "print(n, t.counts['prime_sequences.sequences'])")
        out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.path.abspath("src"))).stdout
        sequences, counted = map(int, out.split())
        self.assertGreater(sequences, 0)
        self.assertEqual(counted, sequences)

    def test_traced_run_fails_loudly_on_a_renamed_function(self):
        src = os.path.join(self.tmp, "src")
        shutil.copytree("src", src)
        path = os.path.join(src, "cubedecomp", "geometry.py")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("def regions_overlap(", "def boxes_overlap("))
        stream.COLD_COMMANDS["tables-cold"] = ["growth --d 1..30"] * 11
        bench = self.bench()
        bench.env["PYTHONPATH"] = src
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), self.assertRaises(run.SetupError):
            run.run_workload(bench, "tables-cold", seed=1, seconds=1, trace=True)
        self.assertIn("TracerError", stderr.getvalue())
        self.assertIn("geometry.regions_overlap", stderr.getvalue())

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        for n in (11, 15, 27, 1500, 7500):
            pct, value = run.tail_percentile(range(n))
            self.assertGreaterEqual(n - 1 - value, 10)
            self.assertLess(n - 1 - value, 10 + n / 1000 + 1)
        self.assertIsNone(run.tail_percentile(range(10)))


if __name__ == "__main__":
    os.makedirs(".bench_tmp", exist_ok=True)
    unittest.main()
