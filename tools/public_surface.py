"""Count the public names and settable values per module of a Python package.

The public names of a module are the names in its ``__all__``; a module
without ``__all__`` exports every top-level name that does not start with
an underscore.  A settable value is a parameter with a default on a public
function or on a public class's ``__init__``, or a field with a default on a
public dataclass.  Methods other than ``__init__`` are not counted.

    python tools/public_surface.py [package-dir]     (default: src/fracpde)
"""

from __future__ import annotations

import ast
import sys
import textwrap
from pathlib import Path


def _exported(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def _defaults(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return named + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _class_defaults(cls: ast.ClassDef) -> list[str]:
    out = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            out += _defaults(node)
        elif (_is_dataclass(cls) and isinstance(node, ast.AnnAssign) and node.value is not None
              and isinstance(node.target, ast.Name)):
            out.append(node.target.id)
    return out


def surface(source: str) -> tuple[list[str], list[str]]:
    """Public names of ``source`` and its settable values as ``owner.name``."""
    tree = ast.parse(source)
    names = _exported(tree)
    if names is None:
        names = [node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    public = set(names)
    settable = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            settable += [f"{node.name}.{arg}" for arg in _defaults(node)]
        elif isinstance(node, ast.ClassDef) and node.name in public:
            settable += [f"{node.name}.{arg}" for arg in _class_defaults(node)]
    return names, settable


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/fracpde")
    total_names = total_settable = 0
    print(f"{'module':<16}{'names':>6}{'settable':>10}")
    for path in sorted(root.glob("*.py")):
        names, settable = surface(path.read_text(encoding="utf-8"))
        total_names += len(names)
        total_settable += len(settable)
        print(f"{path.name:<16}{len(names):>6}{len(settable):>10}")
        for label, items in (("names", names), ("settable", settable)):
            if items:
                print(textwrap.fill(", ".join(items), width=100, initial_indent=f"    {label}: ",
                                    subsequent_indent=" " * 8))
    print(f"{'total':<16}{total_names:>6}{total_settable:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
