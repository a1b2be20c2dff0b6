"""The README's library example runs as shown: each line it prints equals the
``# ...`` comment on the print call that wrote it."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
