"""The README's library example runs as written and prints what it did when
it was written: the equator and pole radii of the beta = 1e-3 solve and the
predicted oblateness."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", README.read_text(),
                      re.M | re.S)
    assert match, "README has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs_and_prints_its_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    radii, sigma = out.getvalue().splitlines()
    # numpy prints the radii to 8 decimals
    assert [float(r) for r in radii.strip("[]").split()] == pytest.approx(
        [3.66728589, 3.64603516], abs=5e-9
    )
    assert float(sigma) == pytest.approx(0.005780539681553659, rel=1e-10)
