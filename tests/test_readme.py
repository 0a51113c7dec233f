"""The README's library example runs, and every value its comments
state is the value the code gives."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_its_values():
    block = _library_block()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = []
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep:
            continue
        try:
            ast.parse(code.strip(), mode="eval")
            # a stated value ends at a colon that starts a remark
            stated = eval(comment.split(":")[0], {"Fraction": Fraction})
        except SyntaxError:
            # an assignment, or a comment that states no value
            continue
        assert eval(code, namespace) == stated, line
        checked.append(code.strip())
    assert len(checked) == 8, checked
