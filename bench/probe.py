"""A fixed task in a fresh interpreter that uses only the standard library.

run.py times it next to the workloads: its time depends on how fast the
machine runs at that moment, never on cubedecomp, so the workloads' times can
be put at one machine speed.  It mixes what the workloads spend their time on:
interpreter start, big-integer arithmetic, Fractions, sets of tuples, JSON.
"""

import json
from fractions import Fraction

x = 3 ** 4000
residue = sum((x * (x + i)) % 1000003 for i in range(300))
classes = {(Fraction(i, i % 7 + 1), i % 13) for i in range(1, 4000)}
text = json.dumps(sorted([str(f), k] for f, k in classes))
