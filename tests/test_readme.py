"""The README's library quickstart runs and shows the values it documents.

Every top-level expression in the quickstart block that ends in a comment
such as ``# 7.0`` is evaluated and compared with that comment: exactly for a
literal, as a prefix of the repr for a comment ending in ``...``.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs_and_shows_the_documented_values():
    source = quickstart_source()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        comment = re.search(r"#\s*(.+?)\s*$", lines[stmt.end_lineno - 1])
        if not (isinstance(stmt, ast.Expr) and comment):
            exec(compile(ast.Module([stmt], []), "README quickstart", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README quickstart", "eval"), namespace)
        documented = comment.group(1)
        if documented.endswith("..."):
            assert repr(value).startswith(documented[:-3]), (documented, value)
        else:
            assert value == ast.literal_eval(documented), (documented, value)
        checked.append(documented)
    assert checked == ["7.0", "7.0", "7.0", "0.166...", "(1, 2)"]
