"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "GenericityReport(generic=True, violations=())" in out
    # a line per well: the global one has S = inf and rate 0
    assert re.search(r"\] inf 0\.0 0\.0\n", out)
