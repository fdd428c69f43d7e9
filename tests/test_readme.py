"""The README's examples, run as written: the docs cannot drift from the code."""

import re
import shlex
from pathlib import Path

import pytest

from pathcensus import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# `pathcensus ARGS   # what it does -> OUTPUT` lines of the CLI block
ARROW_EXAMPLES = re.findall(r"^pathcensus (.+?)\s+#.*-> (.+)$", README, re.M)
# ```-fenced `$ pathcensus ARGS` sessions followed by their stdout
SESSIONS = re.findall(r"^```\n\$ pathcensus ([^\n]+)\n(.*?)^```$", README, re.M | re.S)


def test_the_readme_has_the_examples_below():
    assert ARROW_EXAMPLES == [
        ("eval 1,2,1,1", "40"),
        ("census -n 8 3,-4", "35 non-symmetric"),
    ]
    assert [args for args, _ in SESSIONS] == ["scan -p 3 --format csv"]


@pytest.mark.parametrize(
    "args,output", ARROW_EXAMPLES + SESSIONS, ids=[a for a, _ in ARROW_EXAMPLES + SESSIONS]
)
def test_cli_examples_print_what_the_readme_says(capsys, args, output):
    assert cli.main(shlex.split(args)) == 0
    assert capsys.readouterr().out == output.rstrip("\n") + "\n"


def test_library_example_gives_the_commented_values():
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README, re.S)[1]
    namespace = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code.strip(), "README.md", "eval")
        except SyntaxError:  # an import, an assignment or a blank line
            exec(code, namespace)
            continue
        got = eval(expression, namespace)
        expected = comment.strip().split("  ")[0]
        if re.fullmatch(r"[\d(][\d(),* ]*", expected):
            assert got == eval(expected), line
            checked.append(code.strip())
    assert checked == [
        "f_value((2, 11, 5), memo)",
        "tt_count(5, (2, -2), memo)",
        "scan(18).max_row",
    ]
