import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import relclock
from relclock.cli import main
from relclock.kernels import kernel_spectrum
from relclock.rates import _certify_kernel

#: functions of src/ that no run of test_every_function_is_reached calls and
#: that relbench/tracer.py wraps or reads by name; they go when the tracer
#: points elsewhere
TRACER_HELD = {
    "relclock.gkls.evolve": "the benchmark tracer wraps it by name",
    "relclock.gkls.unvec": "its one caller in src/ is evolve, which the benchmark tracer wraps",
    "relclock.integrability.build_slice_generator": "the benchmark tracer wraps it by name",
    "relclock.rates.kappa_tcl_vacuum": "the benchmark tracer wraps it by name",
    "relclock.rates.kappa_tcl_kms": "the benchmark tracer wraps it by name",
    "relclock.trajectories.NoiseField.samples": "the benchmark tracer reads it",
    "relclock.trajectories.TrajectoryEnsemble.n_traj": "the benchmark tracer reads it",
}
#: functions of src/ that no run calls and that a rule of the language keeps
BY_LANGUAGE_RULE = {
    "relclock.kernels.ClockKernel.evaluate": "abstract: every kernel overrides it",
    "relclock.kernels.ClockKernel.spectrum": "abstract: every kernel overrides it",
    "relclock.kernels.ClockKernel.width": "abstract: every kernel overrides it",
    "relclock.specfun.AccuracyError.__init__": "an error's constructor runs only when it is raised",
    "relclock.gkls.ChoiVerdict.__bool__": "without it a failed verdict would read as true",
}
#: the keep list: a function that only tests call is on neither part, so it
#: cannot come back without an edit here
UNREACHED_KEPT = {**TRACER_HELD, **BY_LANGUAGE_RULE}


def test_every_exported_name_resolves():
    # a deleted function must take its __all__ entry with it
    modules = [relclock] + [importlib.import_module(m.name)
                            for m in pkgutil.iter_modules(relclock.__path__, "relclock.")]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 8
    missing = [f"{mod.__name__}.{name}" for mod in exporting for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []


def test_every_exported_name_is_used():
    # an exported name must be used in src/ outside its own definition and
    # the __all__ lists (an import alone does not count), or be kept on
    # UNREACHED_KEPT
    exported, used = set(), set()
    for path in Path(relclock.__file__).parent.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                exported.update(elt.value for elt in stmt.value.elts)
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    kept = {key.rsplit(".", 1)[1] for key in UNREACHED_KEPT}
    assert sorted(exported - used - kept) == []


def _defined_functions():
    """(file, first line) -> dotted name of every def in src/, methods and
    nested functions included.  The first line is that of the first
    decorator, as in the code object's ``co_firstlineno``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [dec.lineno for dec in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in Path(relclock.__file__).parent.glob("*.py"):
        module = "relclock" if path.stem == "__init__" else f"relclock.{path.stem}"
        visit(ast.parse(path.read_text()), path, module + ".")
    return found


_SMALL_RUNS = {
    "rates": "[rates]\nomega_min = -4\nomega_max = 1\nomega_points = 4\n",
    "lamb_shift": "",
    "markov_limit": "",
    "kms": "[env]\nbeta = 1\n",
    "gkls": "",
    "langevin": "",
    "unravel": "[unravel]\nn_traj = 200\nt = 0.2\n",
    "noise": "[noise]\ngrid_points = 8\nn_real = 200\n",
    "curl": "",
    "boost": "",
    "cq": "[cq]\ncells = 32\n",
    "tradeoff": "[tradeoff]\nd0 = 1\nd1 = 1\nd2 = 1\n",
}
#: every scenario at a small size, the thermal, coherent-kernel and boosted
#: variants, and curl at 6 sites
REACH_RUNS = [
    *_SMALL_RUNS.items(),
    *((s, "[env]\nbeta = 1\n" + _SMALL_RUNS[s])
      for s in ("rates", "markov_limit", "gkls", "langevin", "noise")),
    ("rates", "[kernel]\nkind = coherent\nr = 3\n" + _SMALL_RUNS["rates"]),
    ("rates", "[env]\nrapidity = 0.5\n" + _SMALL_RUNS["rates"]),
    ("curl", "[curl]\nn_sites = 6\n"),
]


def test_every_function_is_reached(tmp_path):
    # every def in src/ is called by some CLI run of REACH_RUNS, in process
    # under a profile hook, or kept on UNREACHED_KEPT; a function whose only
    # caller is itself unreached counts as unreached; the kernel caches are
    # cleared first, as a kernel an earlier test certified would skip its
    # certificate here
    _certify_kernel.cache_clear()
    kernel_spectrum.cache_clear()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for i, (scenario, text) in enumerate(REACH_RUNS):
            config = tmp_path / f"{i}.ini"
            config.write_text("[run]\nseed = 2\n" + text)
            codes.append(main([scenario, "--config", str(config), "--output", str(tmp_path / str(i)),
                               "--quiet"]))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(REACH_RUNS)
    defined = _defined_functions()
    unreached = {defined[key] for key in defined.keys() - called}
    assert sorted(unreached - UNREACHED_KEPT.keys()) == []
    assert sorted(UNREACHED_KEPT.keys() - unreached) == []


#: settable values in src/ (see test_settable_value_count); a change that
#: adds a setting raises this and says why
SETTABLE_VALUES = 337


def test_settable_value_count():
    # every def parameter other than self/cls (*args and **kwargs included,
    # lambdas not) plus every field of a dataclass
    count = 0
    for path in Path(relclock.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                count += sum(arg.arg not in ("self", "cls") for arg in params)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(dec) for dec in node.decorator_list):
                count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    assert count <= SETTABLE_VALUES


def test_lazy_imports_in_a_fresh_interpreter():
    # the package root loads nothing; a name loads its home module and that
    # module's own imports, and nothing from other scenarios
    code = ("import sys\n"
            "import relclock\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('relclock', 'numpy')))\n"
            "from relclock.gkls import GKLSModel\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'relclock'))\n")
    src = str(Path(relclock.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [str(["relclock"]),
                                        str(["relclock", "relclock.gkls", "relclock.kernels"])]
