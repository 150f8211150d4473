"""README's library session runs as printed and gives the values it states."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_session_gives_the_values_its_comments_state():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    gd = ns["gd"]
    assert re.search(r"gd\.intrinsic_cech_distance\(g1, g2\) +# 0\.0 ", block)
    assert gd.intrinsic_cech_distance(ns["g1"], ns["g2"]) == 0.0
    assert re.search(r"d\.pairs\(\) +# \(\(0\.5, 1\.5\), \(0\.5, 2\.5\)\)\n", block)
    assert ns["d"].pairs() == ((0.5, 1.5), (0.5, 2.5))
