"""The README's library example runs as written, and its configs parse."""

import json
import re
from pathlib import Path

from kramers_lab.cli import parse_config

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


def test_command_line_configs_parse(tmp_path):
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):
                   text.index("\n## Library\n")]
    blocks = [json.loads(b)
              for b in re.findall(r"```json\n(.*?)```", section, re.S)]
    assert len(blocks) == 3
    for k, raw in enumerate(blocks):
        if "landscape" not in raw:
            # the custom-landscape fragment
            raw = {"landscape": raw, "stages": ["analyze"]}
        path = tmp_path / f"config_{k}.json"
        path.write_text(json.dumps(raw))
        parse_config(path)
