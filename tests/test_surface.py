"""The public surface of the package grows only by a visible edit here."""

import importlib.util
from pathlib import Path

import fracpde

SRC = Path(fracpde.__file__).resolve().parent
TOOL = Path(__file__).resolve().parents[1] / "tools" / "public_surface.py"

# Ceilings on the names in the modules' ``__all__`` and on the settable
# values (parameters and fields with defaults) of the public functions and
# classes, as ``tools/public_surface.py`` counts them.  A new knob or name
# means raising one of these on purpose.
MAX_NAMES = 99
MAX_SETTABLE = 42


def _surface():
    spec = importlib.util.spec_from_file_location("public_surface", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names, settable = [], []
    for path in sorted(SRC.glob("*.py")):
        module_names, module_settable = tool.surface(path.read_text(encoding="utf-8"))
        names += module_names
        settable += module_settable
    return names, settable


def test_public_surface_stays_under_its_ceilings():
    names, settable = _surface()
    assert len(names) <= MAX_NAMES, names
    assert len(settable) <= MAX_SETTABLE, settable
