"""Seeded inputs for the benchmark workloads.

The cold workloads run a fixed list of CLI commands; the seed only fixes the
order of each pass, so every seed measures the same work.  The session-warm
workload is a stream of public-API requests drawn from the mix in
`mix.json`: each kind gets a fixed number of requests per session and its
arguments are drawn from the stated ranges.  The same seed always gives the
same stream.
"""

import json
import os
import random
from fractions import Fraction
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
EMIT_PATH = ".bench_tmp/emit.jsonl"  # relative to the checkout; it is echoed in stdout

# Series reversion and table emission do the work; no enumeration oracle runs.
TABLES_COLD = [
    "seq sd --d 1 --max-n 140",
    "seq sd --d 2 --max-n 140",
    "seq sd --d 3 --max-n 140",
    "refined --d 2 --r 2,1 --max-n 110",
    "seq ad --d 3 --max-n 1400",
    "seq td --d 3 --max-n 560",
    "mu --d 3 --n 1..40000",
    "lcm-count g --n 1..2000",
    "growth --d 1..30",
]

# The brute-force side: enumeration, canonical dedup, phi/psi; series only at n <= 10.
ORACLES_COLD = [
    "verify --suite oracles",
    "verify --suite bijection",
    f"enum decomp --d 2 --n 6 --emit {EMIT_PATH}",
    f"enum necs --n 9 --emit {EMIT_PATH}",
    f"enum trees --d 2 --n 7 --emit {EMIT_PATH}",
]

COLD_COMMANDS = {"tables-cold": TABLES_COLD, "oracles-cold": ORACLES_COLD}


def load_mix() -> dict:
    with open(os.path.join(HERE, "mix.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cold_pass(workload: str, seed: int, index: int) -> List[str]:
    """The commands of one pass of a cold workload, in seeded order."""
    commands = list(COLD_COMMANDS[workload])
    random.Random(f"{workload}:{seed}:{index}").shuffle(commands)
    return commands


def _randint(rng: random.Random, bounds) -> int:
    return rng.randint(bounds[0], bounds[1])


def _decomposition(rng: random.Random, d: int, regions: int, max_arity: int) -> dict:
    """A random split decomposition with exactly `regions` boxes, boxes in random order."""
    boxes = [((Fraction(0), Fraction(1)),) * d]
    while len(boxes) < regions:
        box = boxes.pop(rng.randrange(len(boxes)))
        arity = rng.randint(2, min(max_arity, regions - len(boxes)))
        axis = rng.randrange(d)
        lo, hi = box[axis]
        step = (hi - lo) / arity
        for j in range(arity):
            boxes.append(box[:axis] + ((lo + j * step, lo + (j + 1) * step),) + box[axis + 1:])
    rng.shuffle(boxes)
    return {"d": d, "regions": [[[str(lo), str(hi)] for lo, hi in box] for box in boxes]}


def _tree_text(rng: random.Random, d: int, leaves: int, max_arity: int) -> str:
    if leaves == 1:
        return "L"
    arity = rng.randint(2, min(max_arity, leaves))
    cuts = sorted(rng.sample(range(1, leaves), arity - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    children = " ".join(_tree_text(rng, d, p, max_arity) for p in parts)
    return f"({rng.randint(1, d)} {children})"


def _request(rng: random.Random, kind: str, ranges: Dict) -> dict:
    if kind == "mobius_d":
        base = _randint(rng, ranges["base"])
        return {"d": _randint(rng, ranges["d"]), "lo": base, "hi": base + ranges["width"] - 1}
    if kind == "phi":
        return {"dec": _decomposition(rng, 1, _randint(rng, ranges["regions"]), ranges["max_arity"])}
    if kind == "gcd_of":
        return {"dec": _decomposition(rng, ranges["d"], _randint(rng, ranges["regions"]),
                                      ranges["max_arity"])}
    if kind == "psi":
        d = _randint(rng, ranges["d"])
        return {"d": d, "text": _tree_text(rng, d, _randint(rng, ranges["leaves"]),
                                          ranges["max_arity"])}
    if kind == "h_count":
        if rng.random() < ranges["two_d_share"]:
            return {"r": [_randint(rng, ranges["two_d_entry"]) for _ in range(2)]}
        return {"r": [_randint(rng, ranges["one_d_n"])]}
    if kind == "table":
        return {"fn": rng.choice(["decomposition_counts", "auxiliary_counts", "tree_counts"]),
                "d": _randint(rng, ranges["d"]), "max_n": _randint(rng, ranges["max_n"])}
    if kind == "refined_counts":
        d = _randint(rng, ranges["d"])
        r = [1] * d
        while r == [1] * d:
            r = [_randint(rng, ranges["r_entry"]) for _ in range(d)]
        return {"d": d, "r": r, "max_n": _randint(rng, ranges["max_n"])}
    if kind == "find_saddle":
        return {"d": _randint(rng, ranges["d"])}
    if kind == "signed_sum":
        return {"d": _randint(rng, ranges["d"]), "n": _randint(rng, ranges["n"])}
    raise ValueError(f"unknown request kind {kind!r}")


def session_stream(seed: int, requests: int = 0) -> List[dict]:
    """The request stream of a session: [{"kind": ..., "args": {...}}, ...].

    `requests` overrides the mix's session length (used by the self-tests).
    """
    mix = load_mix()
    total = requests or mix["requests_per_session"]
    rng = random.Random(f"session-warm:{seed}")
    kinds = []
    for entry in mix["kinds"]:
        kinds += [entry] * round(entry["share"] * total)
    rng.shuffle(kinds)
    return [{"kind": e["kind"], "args": _request(rng, e["kind"], e["ranges"])} for e in kinds]
