"""The README's library example runs as printed."""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs_and_gives_its_results():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, values = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert values[1] == (13, 34)
    assert values[2] == [(1, 1), (2, 5), (13, 34), (89, 233), (610, 1597)]
