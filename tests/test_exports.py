import ast
import pathlib
import types

import ridgecav
from ridgecav import cli

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


def test_library_changes_no_process_wide_state():
    # stands in for a lint rule: the umask, the working directory, NumPy's
    # error and print settings and the warning filters belong to the caller;
    # a scoped np.errstate is fine
    banned = {("os", "umask"), ("os", "chdir"), ("np", "seterr"),
              ("np", "set_printoptions"), ("warnings", "simplefilter")}
    calls = []
    for path in sorted((ROOT / "src" / "ridgecav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and (node.func.value.id, node.func.attr) in banned):
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not calls


def test_raises_use_value_error_or_an_error_class_with_its_own_exit_code():
    # an out-of-domain input is a ValueError; a RidgecavError subclass exists
    # only where a caller can tell it apart: ConfigError's line number, or an
    # exit code of its own
    classes = {
        name: value for name, value in vars(ridgecav).items()
        if isinstance(value, type) and issubclass(value, ridgecav.RidgecavError)
    }
    allowed = set(classes) | {"ValueError"}
    bad = []
    for path in sorted((ROOT / "src" / "ridgecav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in allowed):
                    bad.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not bad
    own_codes = {
        kind for kinds, code in cli._EXIT_CODES if code != cli.EXIT_VALIDATION
        for kind in (kinds if isinstance(kinds, tuple) else (kinds,))
    }
    for name, cls in classes.items():
        if name not in ("RidgecavError", "ConfigError"):
            assert cls in own_codes, name
