"""The README's Python blocks run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

from hhcurves import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_print_what_their_comments_say(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--family", "horizontal", "--range",
                     "0:0.2:0.01", "-o", "curve.csv"]) == 0
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    at = lines.index("Biharmonic")
    # the residual each route prints, to the two digits its comment gives
    stated = re.findall(r"print\(max\(report\.residual_(direct|frenet)\)\)"
                        r"\s+# ([0-9.e+-]+):", blocks[0])
    assert [route for route, _ in stated] == ["direct", "frenet"]
    for printed, (_, comment) in zip(lines[at + 1:at + 3], stated):
        assert "%.1e" % float(printed) == comment
