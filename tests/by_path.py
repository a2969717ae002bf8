"""Repository files loaded as modules by their paths, for the tests of
scripts and of the benchmark harness."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_by_path(relative: str):
    """A file of the repository, loaded as a module by its path: its package is
    not imported, and nothing under a `__main__` check runs."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location("_loaded_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
