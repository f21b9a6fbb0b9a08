"""covox runs on the standard library, numpy and yaml alone.

Every import in src/covox is read from the AST, including imports inside
functions and under a condition, so a third-party shortcut such as
`scipy.ndimage.label` fails here even where it happens to be installed.
Relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "covox"
THIRD_PARTY = {"numpy", "yaml"}


def _imported_packages(path: Path):
    """(top-level package, line) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_package_imports_only_stdlib_numpy_and_yaml():
    found, foreign = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for package, line in _imported_packages(path):
            found.add(package)
            if package not in sys.stdlib_module_names and package not in THIRD_PARTY:
                foreign.append(f"{path.name}:{line} imports {package}")
    assert not foreign, "imports outside the standard library, numpy and yaml:\n" + "\n".join(foreign)
    assert THIRD_PARTY <= found


def test_imports_are_found_wherever_they_are(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os.path\n"
        "from . import geometry\n"
        "def label(mask):\n"
        "    from scipy import ndimage\n"
        "    return ndimage.label(mask)\n"
    )
    assert sorted(_imported_packages(module)) == [("os", 1), ("scipy", 4)]
