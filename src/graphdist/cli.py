"""Command-line front end. It owns every text format: JSON field names, CSV
layouts and float digits; the library modules return data.

Exit codes: 0 success / all instances pass, 1 verification violation,
2 input error. All floats are printed with 12 significant digits so that
repeated runs diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import List, Optional

from .cycles import LoopSystem, first_betti
from .errors import GraphError
from .generators import bouquet, named, random_metric_graph
from .graph_distances import (
    intrinsic_cech_distance,
    persistence_distortion_from_samples,
    sample_phi,
)
from .harness import FAMILIES, run_verification
from .metric_graph import load_graph, parse_point, save_graph, to_json_dict
from .persistence import Diagram, extended_persistence_1d


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Round every float to 12 significant digits for diffable JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    """Indented, key-sorted JSON of obj with floats at 12 significant digits."""
    return json.dumps(_round12(obj), indent=2, sort_keys=True) + "\n"


def _loops_json(system: LoopSystem) -> list:
    return [
        {"edges": [{"id": eid, "dir": d} for eid, d in loop], "length": length}
        for loop, length in zip(system.loops, system.lengths)
    ]


def _diagram_json(diagram: Diagram) -> list:
    return [
        {"birth": p.birth, "death": p.death, "edge_id": p.edge, "paired_vertex": p.paired_vertex}
        for p in diagram.points
    ]


def _diagram_csv(diagram: Diagram) -> str:
    # csv.writer quotes an edge id that holds a comma or a quote
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["birth", "death", "edge_id"])
    writer.writerows([_fmt(p.birth), _fmt(p.death), p.edge or ""] for p in diagram.points)
    return buf.getvalue()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    try:
        if args.bouquet:
            g = bouquet([float(x) for x in args.bouquet.split(",")])
        elif args.named:
            g = named(args.named)
        elif args.random:
            parts = args.random.split(",")
            if len(parts) != 4:
                raise GraphError("--random expects N,M,LMIN,LMAX")
            n, m = int(parts[0]), int(parts[1])
            g = random_metric_graph(n, m, (float(parts[2]), float(parts[3])), args.seed)
        else:
            raise GraphError("choose one of --bouquet/--named/--random")
    except ValueError as exc:
        raise GraphError(f"bad numeric argument: {exc}") from exc
    if args.out:
        save_graph(g, args.out)
    else:
        sys.stdout.write(_json_text(to_json_dict(g)))
    return 0


def _cmd_loops(args) -> int:
    g = load_graph(args.graph)
    system = g.loop_system
    if args.format == "json":
        payload = {
            "n": len(system),
            "first_betti": first_betti(g),
            "loops": _loops_json(system),
        }
        text = _json_text(payload)
    elif args.format == "csv":
        lines = ["index,length,edges"]
        for i, (loop, length) in enumerate(zip(system.loops, system.lengths)):
            ids = " ".join(eid for eid, _ in loop)
            lines.append(f"{i},{_fmt(length)},{ids}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"n={len(system)}"]
        for loop, length in zip(system.loops, system.lengths):
            ids = " ".join(eid for eid, _ in loop)
            lines.append(f"  length={_fmt(length)}  [{ids}]")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_diagram(args) -> int:
    g = load_graph(args.graph)
    base = parse_point(args.base).normalized(g)
    diagram = extended_persistence_1d(g, base)
    if args.format == "json":
        text = _json_text({"points": _diagram_json(diagram)})
    else:
        text = _diagram_csv(diagram)
    _emit(text, args.out)
    return 0


def _cmd_dic(args) -> int:
    g1, g2 = load_graph(args.graph), load_graph(args.graph2)
    value = intrinsic_cech_distance(g1, g2)
    if args.format == "json":
        text = _json_text({"dic": value})
    else:
        text = _fmt(value) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_dpd(args) -> int:
    g1, g2 = load_graph(args.graph), load_graph(args.graph2)
    phi1, phi2 = sample_phi(g1, args.delta), sample_phi(g2, args.delta)
    estimate, bound = persistence_distortion_from_samples(phi1, phi2, args.ground)
    payload = {
        "dic": intrinsic_cech_distance(g1, g2),
        "dpd_estimate": estimate,
        "dpd_error_bound": bound,
        "delta": args.delta,
        "n_samples_1": len(phi1.samples),
        "n_samples_2": len(phi2.samples),
    }
    if args.format == "table":
        lines = [f"{k} = {_fmt(v) if isinstance(v, float) else v}" for k, v in payload.items()]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(payload)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    reports = run_verification(args.family, args.n, args.seed, delta=args.delta)
    if args.format == "table":
        lines = [
            f"{r.family} seed={r.seed} dic={_fmt(r.dic)} "
            f"dpd={_fmt(r.dpd_estimate)}+-{_fmt(r.dpd_error_bound)} "
            f"ratio={_fmt(r.ratio)} {r.verdict}"
            for r in reports
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = "\n".join(
            json.dumps(_round12(dataclasses.asdict(r)), sort_keys=True) for r in reports
        ) + "\n"
    _emit(text, args.out)
    return 1 if any(r.verdict == "VIOLATION" for r in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdist",
        description="Topological distances between finite metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph JSON file")
    p.add_argument("--bouquet", help="comma-separated loop lengths")
    p.add_argument("--named", help="theta | cycle:L | path:L | dumbbell:L1,C,L2")
    p.add_argument("--random", help="N,M,LMIN,LMAX")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("loops", help="shortest system of loops")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_loops)

    p = sub.add_parser("diagram", help="extended persistence diagram from a base point")
    p.add_argument("--graph", required=True)
    p.add_argument("--base", required=True, help="vertex id or edgeId@offset")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("dic", help="intrinsic Cech distance")
    p.add_argument("--graph", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dic)

    p = sub.add_parser("dpd", help="persistence distortion distance (sampled)")
    p.add_argument("--graph", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ground", choices=("l1", "linf"), default="l1")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dpd)

    p = sub.add_parser("verify", help="run the inequality verification harness")
    p.add_argument("--family", choices=(*FAMILIES, "bouquet-vs-arbitrary"), required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
