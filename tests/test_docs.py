"""The README's code examples run against the package as it stands."""

import re
import shlex
from pathlib import Path

from hybridrelay import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    # A public name deleted from the package fails here, not in a reader's
    # shell.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "large-array limit:" in out
    assert "full-digital SINRs:" in out
    assert "sweep rows: 8" in out


def test_cli_examples_parse():
    # A renamed flag or alias left in the docs fails here.  Nothing is
    # drawn or written: simulate's examples stop at parse_config.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("hybridrelay ")
    ]
    assert sorted(argv[0] for argv in commands) == ["simulate", "verify-lemmas"]
    for argv in commands:
        args = cli._build_parser().parse_args(argv)
        if argv[0] == "simulate":
            cli.parse_config(cli._merge_settings(args))
