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
    # start-up time and memory; transport loads it on the first solver call.
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "copula_ot").glob("*.py"))
        if "scipy" in import_time_modules(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


# Every cost power goes through these two, so that the costs several routines
# compute from the same distances are the same floats, and a change to how
# cost powers are rounded changes these two bodies alone.
POWER_PRIMITIVES = {"transport._distance_powers", "transport._sum_powers"}
# Powers by p or q that are not costs: a derivative of the cost, of which only
# the sign is read, and the 1/p root of a cost that the CLI prints to 12 digits.
NON_COST_POWERS = {"counterexample.monge_cross_partial", "cli._report_plan"}


def reads_an_exponent(node: ast.AST) -> bool:
    """Whether the expression reads p or q, as a name or as a .p or .q attribute."""
    return any(
        (isinstance(n, ast.Name) and n.id in ("p", "q")) or (isinstance(n, ast.Attribute) and n.attr in ("p", "q"))
        for n in ast.walk(node)
    )


def exponent_powers() -> dict[str, list[int]]:
    """Lines of each ``**`` or ``**=`` by p or q in the package, keyed by its top-level function."""
    found: dict[str, list[int]] = {}
    for path in sorted((ROOT / "src" / "copula_ot").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                    exponent = node.right
                elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
                    exponent = node.value
                else:
                    continue
                if reads_an_exponent(exponent):
                    found.setdefault(owner, []).append(node.lineno)
    return found


def test_cost_powers_are_taken_only_by_the_two_primitives():
    found = exponent_powers()
    strays = {owner: lines for owner, lines in found.items() if owner not in POWER_PRIMITIVES | NON_COST_POWERS}
    assert strays == {}
    # Each primitive takes its power, and each exemption still names one.
    assert POWER_PRIMITIVES | NON_COST_POWERS <= set(found)


# The construction's distance tables have one builder, which the gap sweep
# and the certificate's potentials both read; the limit problem's costs,
# which no epsilon scales, are the only other distance powers there.
TABLE_BUILDERS = {"counterexample._pair_tables", "counterexample._limit_costs"}


def readers_of(module: str, name: str) -> set[str]:
    """The top-level functions of a package module that read ``name``, bare or as an attribute."""
    path = ROOT / "src" / "copula_ot" / f"{module}.py"
    found = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name
            ):
                found.add(f"{module}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_the_table_builders_take_distance_powers_in_the_construction():
    assert readers_of("counterexample", "_distance_powers") == TABLE_BUILDERS


# exact_ot alone picks the exact solve's path, so no other module asks
# whether the weights make an assignment.
def modules_naming(name: str) -> set[str]:
    """The package modules that define, import or read ``name``."""
    found = set()
    for path in sorted((ROOT / "src" / "copula_ot").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                found.add(path.stem)
    return found


def test_only_transport_asks_whether_the_solve_is_an_assignment():
    assert modules_naming("_assignment_shaped") == {"transport"}


# np.sum adds fewer than 8 columns left to right and 8 or more pairwise.  One
# routine owns that order, so a change to it changes one body alone.
COORDINATE_SUM = "transport._coordinate_sums"


def compares_against_eight() -> dict[str, list[int]]:
    """Lines of each comparison with the constant 8 in the package, keyed by its top-level function."""
    found: dict[str, list[int]] = {}
    for path in sorted((ROOT / "src" / "copula_ot").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant) and side.value == 8 for side in [node.left, *node.comparators]
                ):
                    found.setdefault(owner, []).append(node.lineno)
    return found


def test_only_the_coordinate_sum_compares_against_8():
    found = compares_against_eight()
    assert {owner: lines for owner, lines in found.items() if owner != COORDINATE_SUM} == {}
    assert COORDINATE_SUM in found


# A timing belongs in CHANGES.md, next to the machine and the commit it was
# taken on; a docstring, comment or README paragraph gives the reason alone.
TIMING = re.compile(r"\d ?(ms|us|µs)\b|\d ?% (faster|slower)|x86-64, one thread")


@pytest.mark.parametrize(
    "path", [*sorted((ROOT / "src").rglob("*.py")), ROOT / "README.md"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_the_source_quotes_no_timings(path):
    lines = path.read_text().splitlines()
    assert [f"line {n}: {line.strip()}" for n, line in enumerate(lines, 1) if TIMING.search(line)] == []
