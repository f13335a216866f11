import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import relclock

#: exported names that no code in src/ uses, each with the reason it stays
UNUSED_EXPORTS_KEPT = {
    "build_slice_generator": "the benchmark tracer wraps it by name",
    "evolve": "the benchmark tracer wraps it by name",
    "kappa_tcl_vacuum": "the benchmark tracer wraps it by name",
    "kappa_tcl_kms": "the benchmark tracer wraps it by name",
    "odd_kernel_transform": "acceptance certificates state the Lamb-shift closed form with it",
    "assemble_kossakowski": "acceptance certificates build the PSD multi-coupling block with it",
}


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
    # the __all__ lists (an import alone does not count), or be kept above
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
    assert sorted(exported - used - UNUSED_EXPORTS_KEPT.keys()) == []
    assert sorted(UNUSED_EXPORTS_KEPT.keys() - (exported - used)) == []


#: settable values in src/ (see test_settable_value_count); a change that
#: adds a setting raises this and says why
SETTABLE_VALUES = 353


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


def test_lazy_names_come_from_their_home_modules():
    for name, module in relclock._HOMES.items():
        home = importlib.import_module(f"relclock.{module}")
        assert name in home.__all__
        assert getattr(relclock, name) is getattr(home, name)


def test_unknown_name_raises_attribute_error():
    # kappa_markov is defined in rates but not exported
    with pytest.raises(AttributeError, match="no attribute 'kappa_markov'"):
        getattr(relclock, "kappa_markov")


def test_lazy_imports_in_a_fresh_interpreter():
    # ``_accel`` is not in the table, so the import falls back to the submodule
    code = ("import sys\n"
            "from relclock import GKLSModel, _accel\n"
            "assert GKLSModel.__module__ == 'relclock.gkls'\n"
            "assert _accel is sys.modules['relclock._accel']\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'relclock'))\n")
    src = str(Path(relclock.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    # GKLSModel's own imports, and nothing from other scenarios
    assert done.stdout.strip() == str(["relclock", "relclock._accel", "relclock.gkls",
                                       "relclock.kernels"])
