"""Every public name the benchmark's tracer wraps must exist in pdlab.

``perfbench/tracing.py`` patches functions by (module, name) when a run asks
for a trace; a name that is renamed or deleted in pdlab would only fail there.
The file imports nothing outside the standard library, so it is loaded here
straight from its path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolves(module: str, name: str) -> bool:
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [(mod, name) for mod, name, _, _ in tracing.SPANS if not _resolves(mod, name)]
    assert missing == []
