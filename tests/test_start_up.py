"""What a start loads: the oracles load on first use, no call that a table command or
a library session makes compiles a module of the package, and a `python -m
cubedecomp.cli` start loads only the modules its command uses."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubedecomp

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
BENCH = ROOT / "bench"

# cubedecomp.__all__ before the oracles moved to cubedecomp._oracles; it does not change.
ALL = [
    "Decomposition", "LEAF", "Necs", "ResidueClass", "SaddleResult", "TruncatedSeries",
    "__version__", "asymptotic_estimate", "auxiliary_counts", "check_growth_bounds",
    "decomposition_counts", "decomposition_from_json_dict", "decomposition_series",
    "decomposition_to_json_dict", "dirichlet_convolve", "divisors", "enumerate_A",
    "enumerate_A_tilde", "enumerate_B", "enumerate_decompositions",
    "enumerate_decompositions_up_to", "enumerate_necs", "enumerate_necs_up_to",
    "enumerate_trees", "eval_M", "eval_M_prime", "eval_M_second", "factorize", "find_oar",
    "find_saddle", "first_even_set", "format_tree", "g_count", "gcd_of", "grid_decomposition",
    "h_count", "involution", "is_exact_cover", "is_reduced", "is_split_generated",
    "iter_sequences", "lcm_of", "leaf_count", "log_asymptotic_estimate", "make_class",
    "mobius", "mobius_d", "mobius_d_values", "mobius_series", "necs_from_json_dict",
    "necs_gcd", "necs_lcm", "necs_to_json_dict", "parse_tree", "phi", "psi",
    "ratio_injection", "refined_counts", "refines_grid", "restrict_rescale", "saddle_bracket",
    "scale_map", "sequence_from_json", "sequence_sign", "sequence_to_json", "sequence_weight",
    "series_from_list", "set_sign", "set_weight", "signed_sum", "split", "split_class",
    "split_decomposition", "split_necs", "tree_counts", "tree_from_json", "tree_to_json",
    "trivial_decomposition", "trivial_necs", "unit_region", "volume",
]


def run_fresh(code: str, cwd=None) -> str:
    """stdout of code run in a fresh interpreter that imports the package from src/."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout


def layers() -> dict:
    """bench/tracer.py's LAYERS: layer module -> the public functions it traces."""
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # loading the file does not install the tracer
    return tracer.LAYERS


# One request of each kind the session benchmark serves (bench/worker.py), each result
# read as the worker reads it; then each table command of the cold benchmark.
REQUESTS_AND_TABLES = """
import contextlib, io, sys
import cubedecomp as lib

def new_modules(before):
    return sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'cubedecomp')

before = set(sys.modules)
dec1 = {"d": 1, "regions": [[["0", "1/2"]], [["1/2", "3/4"]], [["3/4", "1"]]]}
dec2 = {"d": 2, "regions": [[["0", "1/2"], ["0", "1"]], [["1/2", "1"], ["0", "1/3"]],
                            [["1/2", "1"], ["1/3", "2/3"]], [["1/2", "1"], ["2/3", "1"]]]}
[lib.mobius_d(2, n) for n in range(1400000, 1400020)]
[[c.a, c.n] for c in lib.phi(lib.decomposition_from_json_dict(dec1)).classes]
list(lib.gcd_of(lib.decomposition_from_json_dict(dec2)))
[[[str(lo), str(hi)] for lo, hi in region]
 for region in lib.psi(lib.parse_tree("(1 L (2 L L L))"), 3).regions]
str(lib.h_count((12, 18))), str(lib.h_count((360,)))
[str(v) for v in lib.decomposition_counts(3, 40)]
[str(v) for v in lib.auxiliary_counts(2, 40)]
[str(v) for v in lib.tree_counts(1, 40).coeffs]
[str(v) for v in lib.refined_counts(2, (2, 3), 20)]
lib.find_saddle(7).to_json_dict()
str(lib.signed_sum(3, 7))
print(new_modules(before))

from cubedecomp import cli
before = set(sys.modules)
for argv in ["seq sd --d 1 --max-n 140", "seq sd --d 2 --max-n 140", "seq sd --d 3 --max-n 140",
             "refined --d 2 --r 2,1 --max-n 110", "seq ad --d 3 --max-n 1400",
             "seq td --d 3 --max-n 560", "mu --d 3 --n 1..40000", "lcm-count g --n 1..2000",
             "growth --d 1..30"]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv.split()) == 0, argv
print(new_modules(before))
"""


def test_no_session_call_and_no_table_command_loads_a_module():
    # A module loaded inside a timed call compiles there (the benchmark writes no
    # bytecode): an earlier lazily loaded package root slowed session calls so.
    assert run_fresh(REQUESTS_AND_TABLES) == "[]\n[]\n"


def test_the_oracles_load_on_first_use_and_bind_where_they_are_read():
    code = ("import sys, cubedecomp\n"
            "print('cubedecomp._oracles' in sys.modules)\n"
            "from cubedecomp import geometry\n"
            "marker = geometry.split = lambda *args: None  # as a tracer rebinds it\n"
            "print(cubedecomp.split is marker, 'cubedecomp._oracles' in sys.modules)\n"
            "trees = cubedecomp.trees\n"
            "print(cubedecomp.enumerate_trees is trees.enumerate_trees,\n"
            "      'enumerate_trees' in vars(cubedecomp), 'enumerate_trees' in vars(trees),\n"
            "      'cubedecomp._oracles' in sys.modules)\n")
    assert run_fresh(code) == "False\nTrue False\nTrue True True True\n"


def test_all_is_unchanged_and_every_name_is_one_object_from_the_root_and_its_home():
    assert cubedecomp.__all__ == ALL
    exported = set(ALL)
    for layer, names in layers().items():
        home = importlib.import_module(f"cubedecomp.{layer}")
        for name in names:
            value = getattr(home, name)
            assert inspect.isfunction(value), f"{layer}.{name}"
            if name in exported:
                assert getattr(cubedecomp, name) is value, f"{layer}.{name}"
                exported.discard(name)
    for name in exported:  # the classes, LEAF, __version__ and the root-only names
        assert getattr(cubedecomp, name) is not None, name


def test_the_tracer_wraps_each_traced_name_where_the_root_reads_it():
    code = ("import tracer; tracer.install(); import importlib, cubedecomp\n"
            "bad = [f'{layer}.{name}' for layer, names in tracer.LAYERS.items()\n"
            "       for name in names\n"
            "       if not hasattr(getattr(importlib.import_module('cubedecomp.' + layer), name),\n"
            "                      '__wrapped__')\n"
            "       or name in cubedecomp.__all__ and getattr(cubedecomp, name) is not\n"
            "       getattr(importlib.import_module('cubedecomp.' + layer), name)]\n"
            "print(bad)\n")
    assert run_fresh(code, cwd=BENCH) == "[]\n"


# Each start of the cold benchmark, `python -m cubedecomp.cli ARGV`, and the package modules
# it loads beyond the root (the CLI itself runs as __main__).
SERIES = ["_commands", "_frozen", "number_theory", "series"]
CLI_STARTS = {
    "--version": [],
    "mu --d 3 --n 1..40000": ["_commands", "number_theory"],
    "lcm-count g --n 1..2000": ["_commands", "lcm_counts", "number_theory"],
    "growth --d 1..30": ["_commands", "_frozen", "asymptotics", "number_theory"],
    "seq sd --d 1 --max-n 140": SERIES,
    "seq sd --d 2 --max-n 140": SERIES,
    "seq sd --d 3 --max-n 140": SERIES,
    "seq ad --d 3 --max-n 1400": SERIES,
    "refined --d 2 --r 2,1 --max-n 110": SERIES,
    "seq td --d 3 --max-n 560": ["_commands", "_frozen", "geometry", "number_theory", "series",
                                 "trees"],
}
REFERENCES = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))

# Run by site as the interpreter starts, before -m locates the module to run: at exit it
# writes the package modules the process loaded to modules.txt beside itself.
SITE_HOOK = """import atexit, os, sys

def _record():
    with open(os.path.join(os.path.dirname(__file__), "modules.txt"), "w") as fh:
        fh.write(" ".join(sorted(m[11:] for m in sys.modules if m.startswith("cubedecomp."))))

atexit.register(_record)
"""


def test_the_pinned_starts_are_the_cold_table_commands():
    tables = sorted(c for c, ref in REFERENCES.items() if ref["workload"] == "tables-cold")
    assert sorted(CLI_STARTS) == ["--version", *tables]


@pytest.mark.parametrize("command", sorted(CLI_STARTS))
def test_a_cli_start_loads_only_what_its_command_uses(tmp_path, command):
    # the launch path the benchmark times: the package root loads while sys.argv[0] is "-m"
    (tmp_path / "sitecustomize.py").write_text(SITE_HOOK, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "cubedecomp.cli", *command.split()],
                          capture_output=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{SRC}"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "modules.txt").read_text(encoding="utf-8").split() == CLI_STARTS[command]
    if command == "--version":
        assert proc.stdout == f"cubedecomp {cubedecomp.__version__}\n".encode()
    else:
        assert hashlib.sha256(proc.stdout).hexdigest() == REFERENCES[command]["stdout_sha256"]


# Run by site before -m locates the module to run: at exit it writes the modules the
# process loaded after site to modules.txt beside itself.
NEW_MODULES_HOOK = """import atexit, os, sys

_before = set(sys.modules)

def _record():
    with open(os.path.join(os.path.dirname(__file__), "modules.txt"), "w") as fh:
        fh.write(" ".join(sorted(set(sys.modules) - _before)))

atexit.register(_record)
"""


@pytest.mark.parametrize("command", ["--version", "--help"])
def test_the_version_and_the_help_load_neither_the_command_bodies_nor_json(tmp_path, command):
    (tmp_path / "sitecustomize.py").write_text(NEW_MODULES_HOOK, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "cubedecomp.cli", command],
                          capture_output=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{SRC}"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    loaded = (tmp_path / "modules.txt").read_text(encoding="utf-8").split()
    assert "argparse" in loaded  # the hook saw the start
    assert {"cubedecomp._commands", "json"}.isdisjoint(loaded)


def test_a_library_import_of_the_cli_loads_the_command_bodies_at_once():
    # as the package root binds its names at once: then no command compiles a module
    assert run_fresh("import sys, cubedecomp.cli\n"
                     "print('cubedecomp._commands' in sys.modules)\n") == "True\n"


def test_the_lazy_root_binds_each_name_on_its_first_read():
    # sys.argv[0] is "-m" while `python -m cubedecomp.cli` imports the root: no name binds
    # up front, and each CLI command reads its public names through the root, binding them
    code = ("import sys; sys.argv[0] = '-m'\n"
            "import importlib, cubedecomp\n"
            "def loaded(): return sorted(m[11:] for m in sys.modules if m[:11] == 'cubedecomp.')\n"
            "print(loaded())\n"
            "cubedecomp.decomposition_counts\n"
            "print(loaded())\n"
            "cubedecomp.enumerate_trees\n"
            "print('_oracles' in loaded())\n"
            "read = {'decomposition_counts', 'enumerate_trees'}\n"
            "print([name for home, names in cubedecomp._HOMES.items() for name in names\n"
            "       if name in vars(cubedecomp) and name not in read  # bound before its read\n"
            "       or getattr(cubedecomp, name) is not\n"
            "       getattr(importlib.import_module('cubedecomp.' + home), name)])\n")
    assert run_fresh(code) == "[]\n['_frozen', 'number_theory', 'series']\nTrue\n[]\n"


def home_imports(source: str):
    """(line, module, name) of each `from .<module> import <name>` of a name in _HOMES
    outside an `if TYPE_CHECKING:` block, function-local imports included."""
    public = {name for names in cubedecomp._HOMES.values() for name in names}
    nodes = [ast.parse(source)]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            nodes += node.orelse
            continue
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            yield from ((node.lineno, node.module, alias.name) for alias in node.names
                        if alias.name in public)
        nodes += ast.iter_child_nodes(node)


def test_the_home_import_guard_sees_local_imports_and_skips_type_checking():
    source = ("from . import phi, _HOMES\nfrom .number_theory import _mobius_d_segment\n"
              "if TYPE_CHECKING:\n    from .geometry import Decomposition\n"
              "def f():\n    from .series import refined_counts, _pack\n")
    assert list(home_imports(source)) == [(6, "series", "refined_counts")]


@pytest.mark.parametrize("module", ["cli", "_commands", "_verify"])
def test_the_cli_and_the_verify_suites_read_public_names_through_the_root(module):
    # then _HOMES alone says where a name lives, and moving a def touches neither file
    source = (ROOT / "src" / "cubedecomp" / f"{module}.py").read_text(encoding="utf-8")
    assert sorted(home_imports(source)) == []


def test_each_oracle_has_one_home_that_serves_it_and_each_home_serves_its_names():
    from cubedecomp import _HOMES, _oracles

    homes = {home: importlib.import_module(f"cubedecomp.{home}") for home in _HOMES}
    oracles = [name for name, value in vars(_oracles).items()
               if inspect.isfunction(value) and value.__module__ == _oracles.__name__
               and not name.startswith("_")]
    assert "enumerate_necs" in oracles
    for name in oracles:
        serving = [home for home, module in homes.items() if hasattr(module, name)]
        assert len(serving) == 1, (name, serving)
        assert getattr(homes[serving[0]], name) is getattr(_oracles, name), name
    with pytest.raises(AttributeError):
        cubedecomp.geometry.enumerate_necs
    for home, names in _HOMES.items():
        for name in names:
            assert hasattr(homes[home], name), f"{home}.{name}"


def test_the_cli_serves_the_verify_tables_and_loads_them_on_first_read():
    code = ("import sys; from cubedecomp import cli\n"
            "print('cubedecomp._verify' in sys.modules)\n"
            "names = 'S_TABLE', 'A_TABLE', 'G_ROW', 'SUITES'\n"
            "served = [getattr(cli, name) for name in names]\n"
            "from cubedecomp import _verify\n"
            "print(all(value is getattr(_verify, name) for value, name in zip(served, names)))\n")
    assert run_fresh(code) == "False\nTrue\n"
