import json
import time

import pytest

from graphdist import MetricGraph, bouquet, feasibility, load_graph, named, save_graph
from graphdist.cli import main


@pytest.fixture
def theta_path(tmp_path):
    path = tmp_path / "theta.json"
    save_graph(named("theta"), str(path))
    return str(path)


@pytest.fixture
def bouquet_path(tmp_path):
    path = tmp_path / "b24.json"
    save_graph(bouquet([2.0, 4.0]), str(path))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generate_roundtrips(tmp_path):
    out = tmp_path / "g.json"
    assert main(["generate", "--bouquet", "2,4", "--out", str(out)]) == 0
    g = load_graph(str(out))
    assert len(g.edges) == 2

    assert main(["generate", "--named", "theta", "--out", str(out)]) == 0
    assert len(load_graph(str(out)).edges) == 3

    assert main(["generate", "--random", "4,6,0.5,2", "--seed", "3", "--out", str(out)]) == 0
    assert len(load_graph(str(out)).edges) == 6


def test_loops_formats(tmp_path, theta_path, bouquet_path, capsys):
    assert main(["loops", "--graph", theta_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n=2")
    assert "length=3" in out and "length=4" in out

    assert main(["loops", "--graph", bouquet_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 2
    assert [l["length"] for l in data["loops"]] == [2.0, 4.0]

    tree = tmp_path / "tree.json"
    save_graph(named("path:2"), str(tree))
    assert main(["loops", "--graph", str(tree)]) == 0
    assert capsys.readouterr().out.startswith("n=0")


def test_diagram_csv_and_base_parsing(tmp_path, bouquet_path, capsys):
    assert main(["diagram", "--graph", bouquet_path, "--base", "o"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "birth,death,edge_id"
    assert out[1:] == ["0,1,loop0", "0,2,loop1"]

    assert main(["diagram", "--graph", bouquet_path, "--base", "loop1@1.0"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 2

    assert main(["diagram", "--graph", bouquet_path, "--base", "loop1@9.9"]) == 2
    assert main(["diagram", "--graph", bouquet_path, "--base", "zzz"]) == 2


def test_dic_command(tmp_path, theta_path, capsys):
    other = tmp_path / "b26.json"
    save_graph(bouquet([2.0, 6.0]), str(other))
    b24 = tmp_path / "b24.json"
    save_graph(bouquet([2.0, 4.0]), str(b24))

    assert main(["dic", "--graph", theta_path, "--graph2", theta_path]) == 0
    assert capsys.readouterr().out.strip() == "0"

    assert main(["dic", "--graph", str(b24), "--graph2", str(other)]) == 0
    assert capsys.readouterr().out.strip() == "0.5"

    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    save_graph(named("path:1"), str(t1))
    save_graph(named("path:3"), str(t2))
    assert main(["dic", "--graph", str(t1), "--graph2", str(t2)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_dpd_command_json_schema(tmp_path, capsys):
    c2, c4 = tmp_path / "c2.json", tmp_path / "c4.json"
    save_graph(named("cycle:2"), str(c2))
    save_graph(named("cycle:4"), str(c4))
    assert main(["dpd", "--graph", str(c2), "--graph2", str(c4), "--delta", "0.1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "dic",
        "dpd_estimate",
        "dpd_error_bound",
        "delta",
        "n_samples_1",
        "n_samples_2",
    }
    assert data["dpd_estimate"] == 1.0
    assert data["dpd_error_bound"] == 0.2
    assert data["dic"] == 0.5
    assert data["n_samples_1"] == 20  # 1 vertex + 19 interior points

    # same file twice: estimate 0
    assert main(["dpd", "--graph", str(c2), "--graph2", str(c2), "--delta", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["dpd_estimate"] == 0.0

    assert main(["dpd", "--graph", str(c2), "--graph2", str(c4), "--delta", "-1"]) == 2


def test_dpd_ground_flag_switches_metric(tmp_path, capsys):
    # circles give diagrams {(0,1)} vs {(0,4)}: under l1 the direct match (3)
    # beats all-diagonal (4); under linf the diagonal route (2) wins
    c2, c8 = tmp_path / "c2.json", tmp_path / "c8.json"
    save_graph(named("cycle:2"), str(c2))
    save_graph(named("cycle:8"), str(c8))
    values = {}
    for ground in ("l1", "linf"):
        assert main(
            ["dpd", "--graph", str(c2), "--graph2", str(c8), "--delta", "0.25",
             "--ground", ground]
        ) == 0
        values[ground] = json.loads(capsys.readouterr().out)["dpd_estimate"]
    assert values["l1"] == 3.0
    assert values["linf"] == 2.0


def test_dpd_error_bound_halves_with_delta(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(named("dumbbell:2,1,4"), str(a))
    save_graph(bouquet([3.0]), str(b))
    bounds = []
    for delta in ("0.2", "0.1"):
        assert main(["dpd", "--graph", str(a), "--graph2", str(b), "--delta", delta]) == 0
        bounds.append(json.loads(capsys.readouterr().out)["dpd_error_bound"])
    assert bounds[0] == pytest.approx(2 * bounds[1])


def test_verify_families_and_exit_codes(tmp_path):
    out1 = tmp_path / "r1.jsonl"
    assert (
        main(
            ["verify", "--family", "bouquet-vs-arbitrary", "--n", "4", "--seed", "9",
             "--out", str(out1)]
        )
        == 0
    )
    lines = read(out1).decode().strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {
            "family", "seed", "dic", "dpd_estimate", "dpd_error_bound", "ratio",
            "verdict",
        }
        assert rec["verdict"] == "PASS"

    assert main(["verify", "--family", "tree-of-loops", "--n", "3", "--seed", "2"]) == 0
    assert main(["verify", "--family", "arbitrary", "--n", "2", "--seed", "2"]) == 0


def test_verify_forced_violation_exits_one(tmp_path, monkeypatch):
    dic = feasibility.intrinsic_cech_distance
    monkeypatch.setattr(
        feasibility, "intrinsic_cech_distance", lambda g1, g2: dic(g1, g2) + 99.0
    )
    out = tmp_path / "r.jsonl"
    code = main(
        ["verify", "--family", "bouquet", "--n", "2", "--seed", "5", "--out", str(out)]
    )
    assert code == 1
    recs = [json.loads(l) for l in read(out).decode().strip().splitlines()]
    assert all(r["verdict"] == "VIOLATION" for r in recs)


def test_verify_byte_identical_across_runs_and_jobs(tmp_path):
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
        path = tmp_path / f"{name}.jsonl"
        assert (
            main(
                ["verify", "--family", "tree-of-loops", "--n", "5", "--seed", "31",
                 "--jobs", jobs, "--out", str(path)]
            )
            == 0
        )
        outs.append(read(path))
    assert outs[0] == outs[1] == outs[2]


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "graphdist", "generate", "--named", "theta",
         "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert len(load_graph(str(out)).edges) == 3


def test_input_errors_exit_two(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["loops", "--graph", missing]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["loops", "--graph", str(bad)]) == 2

    disconnected = tmp_path / "disc.json"
    disconnected.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [{"id": "e", "u": "a", "v": "b", "length": 1.0}],
            }
        )
    )
    assert main(["loops", "--graph", str(disconnected)]) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": ["a"], "edges": 5},
        {"vertices": ["a"], "edges": None},
        {"vertices": "a", "edges": []},
        {"vertices": ["a"], "edges": [["e", "a", "a", 1.0]]},
        {"vertices": ["a"], "edges": [{"id": "e", "u": "a", "v": "a", "length": 10**400}]},
        {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e", "u": "a", "v": "b", "length": True},
                {"id": "f", "u": "a", "v": "b", "length": "2.5"},
            ],
        },
        {"vertices": ["a", "b"], "edges": [{"id": "f", "u": "a", "v": "b", "length": "2.5"}]},
    ],
)
def test_malformed_graph_json_exits_two_with_one_error_line(tmp_path, capsys, data):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert main(["loops", "--graph", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "content", [b"\xff\xfe\x00", b"[" * 100_000], ids=["not-utf8", "deeply-nested"]
)
def test_undecodable_graph_file_exits_two_with_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "g.json"
    path.write_bytes(content)
    assert main(["loops", "--graph", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in err[0]


#: a 9e307 edge and a self-loop of length 1: every length is finite, but
#: twice their sum is not
_NEAR_FLOAT_LIMIT = {
    "vertices": ["a", "b"],
    "edges": [
        {"id": "e", "u": "a", "v": "b", "length": 9e307},
        {"id": "s", "u": "b", "v": "b", "length": 1.0},
    ],
}


@pytest.mark.parametrize("command", ["generate", "loops", "dic", "diagram", "dpd"])
def test_lengths_near_the_float_limit_exit_two(tmp_path, bouquet_path, capsys, command):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_NEAR_FLOAT_LIMIT))
    big = str(path)
    argv = {
        "generate": ["generate", "--random", "4,6,1e307,1.7e308", "--out", big],
        "loops": ["loops", "--graph", big],
        "dic": ["dic", "--graph", big, "--graph2", bouquet_path],
        "diagram": ["diagram", "--graph", big, "--base", "a"],
        "dpd": ["dpd", "--graph", bouquet_path, "--graph2", big, "--delta", "1e307"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["diagram", "dpd"])
def test_disconnected_graph_exits_two(tmp_path, bouquet_path, capsys, command):
    path = tmp_path / "forest.json"
    save_graph(
        MetricGraph.build(["a", "b", "x", "y"], [("e1", "a", "b", 1.0), ("e2", "x", "y", 1.0)]),
        str(path),
    )
    argv = {
        "diagram": ["diagram", "--graph", str(path), "--base", "a"],
        "dpd": ["dpd", "--graph", bouquet_path, "--graph2", str(path), "--delta", "0.5"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "disconnected" in err[0]
    assert captured.out == ""


def test_dpd_tiny_delta_fails_fast(bouquet_path, capsys):
    start = time.perf_counter()
    code = main(["dpd", "--graph", bouquet_path, "--graph2", bouquet_path,
                 "--delta", "1e-12"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "1e-12" in err[0] and "100000" in err[0]


def test_outputs_use_12_significant_digits(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_graph(bouquet([1.0 / 3.0]), str(path))
    assert main(["loops", "--graph", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "0.333333333333," in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "bouquet", "--n", "2", "--delta", "inf"],
        ["dpd", "--graph", "{g}", "--graph2", "{g}", "--delta", "inf"],
        ["dpd", "--graph", "{g}", "--graph2", "{g}", "--delta", "1e308"],
    ],
    ids=["verify-inf", "dpd-inf", "dpd-1e308"],
)
def test_delta_without_a_finite_bound_exits_two(bouquet_path, capsys, argv):
    code = main([a.format(g=bouquet_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "delta" in err[0]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_without_instances_exits_two(capsys, n):
    assert main(["verify", "--family", "bouquet", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_graph_with_split_style_edge_ids_does_not_hang(tmp_path):
    # Splitting x at the base mints the pieces x#0 and x#1, which this graph
    # already uses as edge ids; the commands must still finish and agree
    # with a copy whose ids cannot collide.
    import os
    import subprocess
    import sys

    import graphdist

    lengths = {"x": 1.0, "x#0": 1.7, "x#1": 2.3}
    renamed = {"x": "a", "x#0": "b", "x#1": "c"}
    for name, ids in (("clash", {e: e for e in lengths}), ("plain", renamed)):
        save_graph(
            MetricGraph.build(
                ["u", "v"], [(ids[e], "u", "v", length) for e, length in lengths.items()]
            ),
            str(tmp_path / f"{name}.json"),
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(graphdist.__file__))

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "graphdist", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def rows(name, base):
        out = run("diagram", "--graph", str(tmp_path / f"{name}.json"), "--base", base)
        return sorted(line.split(",") for line in out.splitlines()[1:])

    back = {new: old for old, new in renamed.items()}
    plain = [[b, d, back[e]] for b, d, e in rows("plain", "a@0.3")]
    assert rows("clash", "x@0.3") == sorted(plain)
    assert len(plain) == 2

    out = run(
        "dpd", "--graph", str(tmp_path / "clash.json"),
        "--graph2", str(tmp_path / "plain.json"), "--delta", "0.5",
    )
    assert json.loads(out)["dpd_estimate"] == 0.0
