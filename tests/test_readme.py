"""The commands and the library example in README.md run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from seqc import cli, theory

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first ```lang block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [shlex.split(line)[1:] for heading in ("CLI", "Common tasks")
            for line in _block(heading, "sh").splitlines() if line.startswith("seqc ")]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 5
    assert {argv[0] for argv in COMMANDS} >= {"generate", "profile", "expansion", "verify"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_0(argv, tmp_path, capsys):
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1:]
    else:
        argv = argv + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_library_example(capsys):
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["Poly(p=2, [1, 1, 1])", "True"]


def test_readme_lists_verify_checks_in_report_order():
    # the backticked names up to the first ";" after this phrase in the
    # seqc.theory row, against every name the suite reports, first seen first
    row = next(line for line in README.splitlines() if line.startswith("| `seqc.theory` |"))
    listed = row.split("its checks, in report order:", 1)[1].split(";", 1)[0]
    reported = dict.fromkeys(c.name for r in theory.verify_suite(64) for c in r.checks)
    assert re.findall(r"`(\w+)`", listed) == list(reported)
