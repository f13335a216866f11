import importlib
import pkgutil

import relclock


def test_every_exported_name_resolves():
    # a deleted function must take its __all__ entry with it
    modules = [relclock] + [importlib.import_module(m.name)
                            for m in pkgutil.iter_modules(relclock.__path__, "relclock.")]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 8
    missing = [f"{mod.__name__}.{name}" for mod in exporting for name in mod.__all__
               if not hasattr(mod, name)]
    assert missing == []
