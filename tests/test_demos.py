"""Each demo prints, byte for byte, the text pinned under demos/expected/."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_prints_its_pinned_output(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    expected = (DEMOS / "expected" / f"{demo.stem}.out").read_bytes()
    assert capsys.readouterr().out.encode() == expected
