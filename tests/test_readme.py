"""README's "Library use" examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks() -> list[str]:
    """The python code blocks of README's "Library use" section, in order."""
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_examples_run():
    blocks = library_use_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # the second reuses the first's acl, trace and victims
            exec(compile(block, str(README), "exec"), namespace)
    first, second = out.getvalue().splitlines()
    assert first.startswith("Metrics(ttd=")
    assert len(second.split()) == 3  # slow-path count, batch cost, probe cost
    assert len(namespace["slow"]) == len(namespace["result"].ticks) == 600
