"""Every `$ bumpless ...` example in README.md prints what the README shows.

An example is a line `$ bumpless ARGS` in a fenced block; its expected
output is the lines after it, up to the next `$ ` line or the end of the
block.  A `...` line stands for any run of output lines, so the lines
after it must end the output.
"""

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
