"""The README's library example runs against the current API."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_use_runs(capsys):
    """The ```python block under "Library use" runs as written and prints."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library use"):], re.S)
    exec(compile(block.group(1), README, "exec"), {})
    assert capsys.readouterr().out
