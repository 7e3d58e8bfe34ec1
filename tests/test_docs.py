"""The README's code examples run against the package as it stands."""

import re
from pathlib import Path

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
