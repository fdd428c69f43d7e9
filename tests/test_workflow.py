"""CI's "Installed command" pins, run in-process: a pin that no runner has
executed still has to hold."""

import re
import shlex
import subprocess
from pathlib import Path

import pytest

from pathcensus import cli

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml").read_text()

STEP = re.search(r"- name: Installed command\n\s+run: \|\n(.*?)\n\s+- name:", WORKFLOW, re.S)[1]
# `diff <(pathcensus ARGS) <(SHELL)` lines, SHELL printing the expected stdout
PINS = re.findall(r"^\s*diff <\(pathcensus (.+?)\) <\((.+)\)$", STEP, re.M)


def test_the_workflow_pins_every_command_line():
    # a reworded line that stops matching would otherwise drop out unseen
    assert len(PINS) == len(STEP.splitlines()) == 12
    assert [shlex.split(args)[0] for args, _ in PINS] == [
        "eval", "scan", *["verify"] * 8, "conjecture", "census",
    ]


@pytest.mark.parametrize("args,shell", PINS, ids=[args for args, _ in PINS])
def test_installed_command_pins_hold(capsys, args, shell):
    want = subprocess.run(["bash", "-c", shell], capture_output=True, text=True, check=True).stdout
    assert cli.main(shlex.split(args)) == 0
    assert capsys.readouterr().out == want
