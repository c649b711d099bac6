"""The Python examples of README.md run and print what the text says."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_examples_print_their_answers():
    outputs = []
    for block in python_blocks():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, README, "exec"), {})
        outputs.append(out.getvalue())
    assert outputs == ["1\n", "False\n"]
