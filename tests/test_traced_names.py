"""The names and submodules that the traced benchmark run wraps.

A traced run imports every submodule that pkgutil lists and wraps every name
of benchmark/tracer.py's TRACED; a name that no longer resolves, or a
submodule that fails to import (a __main__ runs the CLI), leaves the run's
metrics empty while it still exits 0.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import schur_isotropy

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves_on_the_package():
    for name in _traced():
        assert callable(getattr(schur_isotropy, name, None)), name


def test_every_listed_submodule_imports_and_none_is_main():
    names = [info.name for info in pkgutil.iter_modules(schur_isotropy.__path__)]
    assert names and "__main__" not in names
    for name in names:
        importlib.import_module(f"schur_isotropy.{name}")
