import ast
import pathlib
import types

import ridgecav

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name_once_and_sorted():
    # equality with the package namespace also proves every listed name resolves
    public = {
        name for name, value in vars(ridgecav).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert ridgecav.__all__ == sorted(set(ridgecav.__all__))
    assert set(ridgecav.__all__) == public


def test_no_unused_module_imports():
    # stands in for a linter's unused-import rule; the package __init__
    # imports only to re-export, and __future__ imports set compiler flags
    paths = sorted((ROOT / "src" / "ridgecav").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in bound.items() if name not in used]
    assert paths and not unused
