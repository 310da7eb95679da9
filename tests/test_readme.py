import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block under the README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_a_final_accuracy():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    acc = float(out.getvalue().strip())
    assert math.isfinite(acc) and 0.0 <= acc <= 1.0
