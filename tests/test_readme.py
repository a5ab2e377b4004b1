"""Every `$ bumpless ...` example in README.md prints what the README shows,
and its ```python block prints and returns what its comments say.

An example is a line `$ bumpless ARGS` in a fenced block; its expected
output is the lines after it, up to the next `$ ` line or the end of the
block.  A `...` line stands for any run of output lines, so the lines
after it must end the output.

In the ```python block a line `# TEXT` is a line the block prints, in
order, and a line `EXPR  # VALUE` says that EXPR evaluates to the
Python literal VALUE once the block has run.
"""

import ast
import shlex
from pathlib import Path

import pytest

from bumpless import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    found = []
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ "):
            current = [] if line.startswith("$ bumpless ") else None
            if current is not None:
                found.append((line[2:], current))
        elif current is not None:
            current.append(line)
    return found


EXAMPLES = examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_its_output(capsys, command, expected):
    assert cli.main(shlex.split(command)[1:]) == 0
    got = capsys.readouterr().out.splitlines()
    if "..." in expected:
        k = expected.index("...")
        head, tail = expected[:k], expected[k + 1 :]
        assert len(got) >= k + len(tail)
        assert got[:k] == head
        assert got[len(got) - len(tail) :] == tail
    else:
        assert got == expected


def library_block():
    """The code lines, the printed lines and the (expression, value)
    pairs of the README's one ```python block."""
    text = README.read_text()
    assert text.count("```python\n") == 1
    block = text.split("```python\n")[1].split("```")[0]
    code, printed, values = [], [], []
    for line in block.splitlines():
        if line.startswith("# "):
            printed.append(line[2:])
        elif "  # " in line:
            expr, _, value = line.rpartition("  # ")
            values.append((expr.strip(), ast.literal_eval(value)))
        else:
            code.append(line)
    return "\n".join(code), printed, values


def test_the_readme_library_example_prints_and_returns_what_it_shows(capsys):
    code, printed, values = library_block()
    assert len(printed) == 3 and len(values) == 2
    scope = {}
    exec(code, scope)
    assert capsys.readouterr().out.splitlines() == printed
    for expr, value in values:
        assert eval(expr, scope) == value, expr
