"""Source hygiene: every imported name is used and every module-level private
name is read (no linter runs on this tree), the package exports exactly what
its modules export, binds nothing else, and exports nothing the code and the
acceptance tests leave unread, and the README states the report schema the
code writes and names only options the CLI has."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import carnotx
from carnotx.cli import _build_parser
from carnotx.report import SCHEMA_VERSION

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "carnotx").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))
LAYERS = {p.stem for p in SRC if p.stem not in ("__init__", "cli")}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, skipping __future__ and __all__.

    A star import binds no name this can track; see star_imports.
    """
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used | exported]


def test_scanner_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(src) == ["os (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from .a import *\nfrom .b import c\n") == ["c (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def loaded_names(tree: ast.AST) -> set[str]:
    """Names a tree reads, as a loaded Name or as any attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names, as 'module:name', that no source reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        read |= loaded_names(tree)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def test_scanner_flags_an_unread_private_name():
    sources = {
        "a": "_A, _B = 1, 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "b": "from a import _C\nx = _C()\n",
    }
    assert unread_private_names(sources) == ["a:_B", "a:_f"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in SRC}
    assert unread_private_names(sources) == []


def unloaded_exports(exports: list[str], sources: list[str]) -> list[str]:
    """Exported names that no source loads; importing a name does not load it."""
    read = set().union(*(loaded_names(ast.parse(source)) for source in sources))
    return [name for name in exports if name not in read]


def test_scanner_flags_an_unloaded_export():
    sources = ["from a import f, g, h\nf(1)\nimport b\nb.h\n", "__all__ = ['k']\n"]
    assert unloaded_exports(["f", "g", "h", "k"], sources) == ["g", "k"]


def test_every_export_is_read():
    # The library is what the verdicts use: each export is read by another
    # module of the package or by the acceptance tests, with no exceptions.
    sources = [p.read_text() for p in SRC if p.name != "__init__.py"]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text())
    exports = [name for name in carnotx.__all__ if name != "__version__"]
    assert unloaded_exports(exports, sources) == []


def private_imports(source: str) -> list[str]:
    """Imported names, or parts of dotted ones, with one leading underscore."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if any(p.startswith("_") and not p.startswith("__") for p in alias.name.split("."))
    ]


def test_scanner_flags_a_private_import():
    src = "from . import __version__\nfrom .a import _b, c\nimport d._e\n"
    assert private_imports(src) == ["_b", "d._e"]


def test_cli_imports_no_private_name():
    # Every verdict, tolerance and draw lives in the library, so the CLI
    # needs only its public names.
    assert private_imports((ROOT / "src" / "carnotx" / "cli.py").read_text()) == []


def test_no_source_imports_the_test_oracles():
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any("_oracles" in name for name in names), path.name


def test_package_exports_are_the_modules_exports():
    # The CLI is the command-line entry point, not part of the library surface.
    layers = [p.stem for p in (ROOT / "src" / "carnotx").glob("*.py")
              if p.stem not in ("__init__", "cli")]
    union = {name for stem in layers
             for name in importlib.import_module(f"carnotx.{stem}").__all__}
    # Sorted lists, so a name exported twice fails too.
    assert sorted(carnotx.__all__) == sorted(union | {"__version__"})


def star_imports(source: str) -> list[str]:
    """Modules a source star-imports, a relative one with its leading dots."""
    return [
        "." * node.level + (node.module or "")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
    ]


def test_scanner_flags_a_star_import():
    src = "from .a import *\nfrom b.c import *\nfrom .d import e\nimport f\n"
    assert star_imports(src) == [".a", "b.c"]


def test_star_imports_only_build_the_package_surface():
    # Nothing above tracks what a star import binds, so star imports may only
    # gather the layer modules' __all__ into the package, where
    # test_package_exports_are_the_modules_exports checks them.
    for path in FILES:
        stars = star_imports(path.read_text())
        if path.parent.name == "carnotx" and path.name == "__init__.py":
            assert set(stars) <= {f".{stem}" for stem in LAYERS}, stars
        else:
            assert stars == [], path.name


def test_package_binds_only_its_exports_and_layers():
    # A fresh interpreter, so that no module another test imported (such as
    # carnotx.cli) is bound; a star import must not leak a helper such as np.
    code = "import carnotx; print(sorted(n for n in vars(carnotx) if not n.startswith('_')))"
    src = str(Path(carnotx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    public = set(carnotx.__all__) - {"__version__"}
    assert ast.literal_eval(done.stdout) == sorted(public | LAYERS)


def test_readme_states_the_schema_version():
    stated = re.findall(r"`schema_version` (\d+)", (ROOT / "README.md").read_text())
    assert stated and all(int(v) == SCHEMA_VERSION for v in stated)


def unknown_options(readme: str, parser) -> list[str]:
    """``--flags`` the text names that are options of no parser or subparser.

    The ``pip install`` line is skipped: its flags are pip's.
    """
    parsers, known = [parser], set()
    while parsers:
        p = parsers.pop()
        for action in p._actions:
            known.update(action.option_strings)
            if action.nargs == argparse.PARSER:
                parsers.extend(action.choices.values())
    named = {
        flag
        for line in readme.splitlines()
        if "pip install" not in line
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
    }
    return sorted(named - known)


def test_scanner_flags_an_unknown_option():
    text = "`--samples` and `--no-such-flag`, a `---` rule\npip install --no-build-isolation\n"
    assert unknown_options(text, _build_parser()) == ["--no-such-flag"]


def test_readme_names_only_cli_options():
    assert unknown_options((ROOT / "README.md").read_text(), _build_parser()) == []
