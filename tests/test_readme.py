"""The README's python blocks run as written, so the docs name only live API."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
