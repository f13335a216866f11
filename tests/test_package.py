import ast
import importlib
import pkgutil
from pathlib import Path

import relclock

#: exported names that no code in src/ uses, each with the reason it stays
UNUSED_EXPORTS_KEPT = {
    "build_slice_generator": "the benchmark tracer wraps it by name",
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
