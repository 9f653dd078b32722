"""The README's Library example runs as printed and gives the results it shows."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_prints_its_commented_results():
    code = library_block()
    lines = code.splitlines()
    namespace = {}
    checked = {}
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            value = eval(source, namespace)
            try:
                expected = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                continue  # a prose comment, not a printed result
            assert value == expected, source
            checked[comment] = source
        else:
            exec(source, namespace)
    assert sorted(checked) == ["1", "True"]
