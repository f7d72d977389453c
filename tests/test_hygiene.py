"""Static checks on the source tree."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Package __init__ modules import names to re-export them.
SOURCES = sorted(
    path
    for folder in ("src", "scripts", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(tree: ast.AST) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def public_definitions() -> list[tuple[str, str]]:
    """(qualified name, bare name) of every public function and method in the package."""
    found = []
    for path in sorted((ROOT / "src" / "copula_ot").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(node, "") for node in tree.body]
        scopes += [
            (item, f"{node.name}.")
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
        ]
        for node, owner in scopes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                found.append((f"{path.stem}.{owner}{node.name}", node.name))
    return found


def called_names() -> set[str]:
    """Every name and attribute read in the program code: src/ outside __init__, scripts/, perfbench/."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "scripts").rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def readme_code_names() -> set[str]:
    """Identifiers inside the README's code spans and code blocks."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_function_has_a_caller_or_is_documented():
    # A public function that only tests call is test-only API: it belongs in
    # tests/helpers.py unless the README documents it.
    reachable = called_names() | readme_code_names()
    orphans = [qualified for qualified, name in public_definitions() if name not in reachable]
    assert orphans == []


def import_time_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a file imports when it is itself imported.

    Function bodies run later, so imports inside them are skipped.
    """
    found = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))
    return found


def test_the_package_does_not_import_scipy_at_module_level():
    # Only an exact solve needs scipy, and its import is most of the package's
    # start-up time and memory; transport.solve_transport loads it on first use.
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "copula_ot").glob("*.py"))
        if "scipy" in import_time_modules(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []
