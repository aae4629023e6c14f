"""Every exported name resolves, so ``from loopygraphs import *`` and its
per-module counterparts keep working when a name is removed."""

import importlib
import pkgutil

import loopygraphs


def test_every_exported_name_resolves():
    # __main__ runs the CLI on import and exports nothing
    names = ["loopygraphs"] + [f"loopygraphs.{m.name}"
                               for m in pkgutil.iter_modules(loopygraphs.__path__)
                               if m.name != "__main__"]
    assert len(names) > 1
    for name in names:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name
