"""The README's library quick tour runs, and every value it states in a
comment is what the code returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", block, re.S).group(1).splitlines()


def _check(value, comment: str, namespace: dict) -> None:
    """Comments take three forms: a Python literal the value equals, then
    optional prose; 'TypeName: text' for the type name and str(value); and
    'within 3 sigma of <expr>' for a (mean, std_error) pair."""
    sigma = re.fullmatch(r"within 3 sigma of (.+)", comment)
    if sigma:
        mean, std_error = value
        assert abs(mean - eval(sigma.group(1), namespace)) <= 3 * std_error
        return
    typed = re.fullmatch(r"(\w+): (.+)", comment)
    if typed:
        assert (type(value).__name__, str(value)) == typed.groups()
        return
    assert value == ast.literal_eval(comment.split()[0])


def test_quick_tour_values():
    namespace: dict = {}
    checked = 0
    for line in _tour_lines():
        code, _, comment = line.partition("  # ")
        code = code.strip()
        if not code:
            continue
        if not comment:
            exec(code, namespace)
            continue
        target = re.match(r"(\w+) = ", code)
        if target:
            exec(code, namespace)
            value = namespace[target.group(1)]
        else:
            value = eval(code, namespace)
        _check(value, comment.strip(), namespace)
        checked += 1
    assert checked
