"""Every public function, class, method and class field in covox has a
reader in the program: a name that only the tests use is dead code or
belongs in tests/.

References are read from the AST of src/covox and bench/: a name counts as
used where it is loaded as a name or an attribute, or imported, anywhere
outside its own definition.  A field (an annotated name in a class body,
such as a dataclass field) counts as used only where it is loaded as an
attribute outside its own declaration line.  Names match by spelling alone,
so the check can miss an unused method or field that shares a name with a
used one.  A name with no such use needs an entry in ALLOWED that says why
it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "covox"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# name -> why it stays without a caller in the program
ALLOWED: dict[str, str] = {}


def _public_definitions(path: Path):
    """(name, first line, last line) of each public top-level function and
    class and each public method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item.name, item.lineno, item.end_lineno


def _public_fields(path: Path):
    """(class name, field name, line) of each public annotated name in the
    body of a top-level class."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    yield node.name, item.target.id, item.lineno


def _references(path: Path):
    """(name, line) of every name the module loads, reads as an attribute or
    imports."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_has_a_caller_in_the_program():
    uses = {path: set(_references(path)) for path in PROGRAM}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _public_definitions(path):
            if name.startswith("_") or name in ALLOWED:
                continue
            used = any(
                ref == name and not (where == path and first <= line <= last)
                for where, refs in uses.items()
                for ref, line in refs
            )
            if not used:
                unused.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unused, "public names without a caller in src/covox or bench/:\n" + "\n".join(unused)
    assert all(reason.strip() for reason in ALLOWED.values()), "an ALLOWED entry gives no reason"


def test_every_public_field_is_read_in_the_program():
    reads = {
        (path, node.attr, node.lineno)
        for path in PROGRAM
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls, name, line in _public_fields(path)
        if name not in ALLOWED
        and not any(attr == name and (where, at) != (path, line) for where, attr, at in reads)
    ]
    assert not unread, "public fields never read in src/covox or bench/:\n" + "\n".join(unread)
