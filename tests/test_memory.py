"""Memory stays bounded: point queries allocate no tables, and no memo outgrows its bound."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import cubedecomp
from cubedecomp.asymptotics import _mu_table, eval_M
from cubedecomp.cli import LCM_PRODUCT_CAP
from cubedecomp import geometry
from cubedecomp.geometry import Decomposition, is_split_generated
from cubedecomp.lcm_counts import _g_sorted, g_count

MB = 1 << 20


def traced_bytes(body: str, setup: str = ""):
    """(current, peak) traced allocation after running body in a fresh interpreter.

    A fresh process keeps whatever earlier tests left in memory out of the
    count; it imports the same cubedecomp as this test.  setup runs before
    tracing starts.
    """
    code = textwrap.dedent("""
        import gc, tracemalloc
        from cubedecomp.number_theory import mobius_d
        from cubedecomp.trees import enumerate_trees
    """) + textwrap.dedent(setup) + "tracemalloc.start()\n" + textwrap.dedent(body) + textwrap.dedent("""
        gc.collect()
        print(*tracemalloc.get_traced_memory())
    """)
    src = os.path.dirname(os.path.dirname(cubedecomp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return tuple(map(int, proc.stdout.split()))


def test_point_query_allocates_no_table():
    current, peak = traced_bytes("assert mobius_d(2, 2_000_003) == -2")
    assert peak < 1 * MB
    assert current < 1 * MB


def test_prime_sieve_holds_one_block_at_a_time():
    # all n + 1 flags at once trace at about 19 MB; one block is 2^18 bytes
    _, peak = traced_bytes("assert sum(1 for _ in _primes(10**7)) == 664_579",
                           setup="from cubedecomp.number_theory import _primes\n")
    assert peak < 2 * MB


def test_tree_enumeration_keeps_nothing_after_return():
    current, peak = traced_bytes("""
        trees = enumerate_trees(2, 7)
        assert len(trees) == 24850
        del trees
    """)
    assert peak > 1 * MB  # the enumeration itself did allocate
    assert current < MB // 2


def test_table_rows_are_written_as_they_are_made():
    # all 40,000 rows held at once took about 3.7 MB; a batch of rows is about 32 KiB,
    # next to the 0.8 MB mu_3 table.  A first, small run leaves argparse's caches
    # out of the count.
    current, peak = traced_bytes(
        """
        real, sys.stdout = sys.stdout, Sink()
        assert main(["mu", "--d", "3", "--n", "1..40000"]) == 0
        sys.stdout, written = real, sys.stdout.written
        assert written == 5_305_237
        """,
        setup="""
        import io, sys
        from cubedecomp.cli import main

        class Sink(io.TextIOBase):
            written = 0

            def write(self, text):
                self.written += len(text)
                return len(text)

        real, sys.stdout = sys.stdout, Sink()
        assert main(["mu", "--d", "3", "--n", "1..2"]) == 0
        sys.stdout = real
        """)
    assert peak < 1 * MB


def _cut_at(k: int) -> Decomposition:
    """{(0, 1/k), (1/k, 1)}, split-generated only for k = 2."""
    x = Fraction(1, k)
    return Decomposition(1, (((Fraction(0), x),), ((x, Fraction(1)),)))


def test_memos_stay_within_their_bounds():
    # the split-generation verdicts of the integer-grid kernel
    bound = geometry._MEMO_BOUND
    assert bound is not None
    assert not any(is_split_generated(_cut_at(k)) for k in range(3, bound + 103))
    assert len(geometry._memo) <= bound

    bound = _mu_table.cache_info().maxsize
    assert bound is not None
    for d in range(2, bound + 12):
        assert eval_M(d, 0.0, 3) == (0.0, 0.0)
    assert _mu_table.cache_info().currsize <= bound

    bound = _g_sorted.cache_info().maxsize
    assert bound is not None and bound >= LCM_PRODUCT_CAP
    for n in range(1, bound + 101):
        g_count((n,))
    assert _g_sorted.cache_info().currsize <= bound
