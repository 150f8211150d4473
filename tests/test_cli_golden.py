"""Byte-identical CLI outputs for fixed inputs and seeds.

Each file under tests/golden/ holds the exit code and the stdout of one
in-process `graphdist.cli.main` call. The input graphs are written into a
temporary directory with `generate --out` first, so the files name no path.

To write the files again from a checkout (only when an output is meant to
change), run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from graphdist.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: name -> generate arguments of each input graph
GRAPHS: Dict[str, List[str]] = {
    "theta": ["--named", "theta"],
    "dumbbell": ["--named", "dumbbell:2,1,4"],
    "bouquet": ["--bouquet", "2,4"],
    "r10s1": ["--random", "10,16,1,2", "--seed", "1"],
    "r10s2": ["--random", "10,16,1,2", "--seed", "2"],
    "r20s3": ["--random", "20,35,1,2", "--seed", "3"],
}


def _cases() -> Dict[str, List[str]]:
    """name -> argv; "{graph}" stands for the path of that input graph."""
    cases = {f"generate-{g}": ["generate", *args] for g, args in GRAPHS.items()}
    for g in ("theta", "dumbbell", "r20s3"):
        for fmt in ("json", "csv", "table"):
            cases[f"loops-{g}-{fmt}"] = ["loops", "--graph", "{%s}" % g, "--format", fmt]
    for g, bases in (("dumbbell", ("a", "bar@0.5")), ("r10s1", ("v0", "e3@0.4"))):
        for base in bases:
            for fmt in ("json", "csv"):
                cases[f"diagram-{g}-{base}-{fmt}"] = [
                    "diagram", "--graph", "{%s}" % g, "--base", base, "--format", fmt,
                ]
    cases["dic-bouquet-dumbbell"] = ["dic", "--graph", "{bouquet}", "--graph2", "{dumbbell}"]
    for ground in ("l1", "linf"):
        cases[f"dpd-r10-{ground}"] = [
            "dpd", "--graph", "{r10s1}", "--graph2", "{r10s2}", "--delta", "0.5",
            "--ground", ground,
        ]
    cases["dpd-dumbbell-theta-table"] = [
        "dpd", "--graph", "{dumbbell}", "--graph2", "{theta}", "--delta", "0.25",
        "--format", "table",
    ]
    for family in ("bouquet", "tree-of-loops", "trees", "arbitrary"):
        cases[f"verify-{family}"] = ["verify", "--family", family, "--n", "5", "--seed", "7"]
    return cases


CASES = _cases()


def write_graphs(directory: Path) -> Dict[str, str]:
    paths = {}
    for g, args in GRAPHS.items():
        path = str(directory / f"{g}.json")
        assert main(["generate", *args, "--out", path]) == 0
        paths[g] = path
    return paths


def run(argv: List[str], paths: Dict[str, str]) -> str:
    """Exit code line, then stdout, of one main call."""
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    return write_graphs(tmp_path_factory.mktemp("graphs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical_to_golden(name, graph_paths):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert run(CASES[name], graph_paths).encode() == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_graphs(Path(tmp))
        for name, argv in CASES.items():
            (GOLDEN / f"{name}.txt").write_bytes(run(argv, paths).encode())
    sys.stdout.write(f"wrote {len(CASES)} files to {GOLDEN}\n")
