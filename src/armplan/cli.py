"""Command-line interface.

    armplan roadmap build --scene <name> --nodes 1000 --k 10 --kpaths 3 --seed 7 --out rm.npz
    armplan bench gen-cases --scene <name> --count 200 --seed 7 --out suite.json
    armplan bench run --scene <name> --cases 200 --planner roadmap+opt --roadmap rm.npz --seed 42 --out results.csv
    armplan bench report --in results.csv --format markdown

A count or seed that is not an integer of at least its least value (two
nodes, one case, seed 0), an endpoint outside the joint limits or in
collision, or a faulty input file prints ``armplan: error: <message>`` and
exits 1 before any output file is written.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .bench import BenchParams, emit_report, read_records, run_benchmark, summarize, write_records, PLANNERS
from .roadmap import RoadmapParams, build_roadmap, load_roadmap, save_roadmap
from .scenarios import (
    SCENE_NAMES, build_scene, default_arm, generate_test_suite, load_suite, save_suite,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="armplan", description=__doc__.strip().splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)

    rm = top.add_parser("roadmap", help="roadmap construction")
    rm_sub = rm.add_subparsers(dest="command", required=True)
    rm_build = rm_sub.add_parser("build", help="build and save a roadmap for a scene")
    rm_defaults = RoadmapParams()
    rm_build.add_argument("--scene", required=True, choices=SCENE_NAMES)
    rm_build.add_argument("--nodes", type=int, default=rm_defaults.n_nodes)
    rm_build.add_argument("--k", type=int, default=rm_defaults.k_neighbors, help="nearest neighbors per node")
    rm_build.add_argument("--kpaths", type=int, default=rm_defaults.k_paths,
                          help="alternate paths kept per node pair")
    rm_build.add_argument("--seed", type=int, default=rm_defaults.rng_seed)
    rm_build.add_argument("--out", required=True)

    bench = top.add_parser("bench", help="benchmark harness")
    bench_sub = bench.add_subparsers(dest="command", required=True)

    gen = bench_sub.add_parser("gen-cases", help="generate and save a feasible test suite")
    gen.add_argument("--scene", required=True, choices=SCENE_NAMES)
    gen.add_argument("--count", type=int, default=200)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True)

    run = bench_sub.add_parser("run", help="run a planner pipeline over a suite")
    run.add_argument("--scene", choices=SCENE_NAMES)
    run.add_argument("--cases", type=int, default=200)
    run.add_argument("--planner", required=True, choices=PLANNERS)
    run.add_argument("--roadmap", help="roadmap file, required for roadmap planners")
    run.add_argument("--suite", help="load this suite instead of generating one")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--out", required=True)
    run.add_argument("--workers", type=int, default=1)

    report = bench_sub.add_parser("report", help="aggregate a results file into a table")
    report.add_argument("--in", dest="infile", required=True)
    report.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    report.add_argument("--out", help="write the table here instead of stdout")
    return parser


def _cmd_roadmap_build(args) -> int:
    scene = build_scene(args.scene)
    params = RoadmapParams(
        n_nodes=args.nodes, k_neighbors=args.k, k_paths=args.kpaths, rng_seed=args.seed
    )
    t0 = time.perf_counter()
    rm = build_roadmap(scene, default_arm(), params)
    save_roadmap(rm, args.out)
    print(
        f"built roadmap for {args.scene}: {rm.n_nodes} nodes "
        f"({args.nodes - rm.n_nodes} pruned), {rm.n_edges} edges, "
        f"{time.perf_counter() - t0:.1f}s -> {args.out}"
    )
    return 0


def _cmd_gen_cases(args) -> int:
    scene = build_scene(args.scene)
    suite = generate_test_suite(scene, default_arm(), args.count, args.seed)
    save_suite(suite, args.out)
    print(f"generated {len(suite)} cases for {args.scene} -> {args.out}")
    return 0


def _cmd_bench_run(args) -> int:
    scene = build_scene(args.scene) if args.scene else None
    if not args.suite and scene is None:
        print("bench run: either --suite or --scene is required", file=sys.stderr)
        return 2
    # a bad roadmap file fails before a suite is generated
    roadmap = load_roadmap(args.roadmap) if args.roadmap else None
    if args.suite:
        suite = load_suite(args.suite)
    else:
        suite = generate_test_suite(scene, default_arm(), args.cases, args.seed)
    params = BenchParams(rng_seed=args.seed)
    records = run_benchmark(
        suite, args.planner, params=params, parallelism=args.workers,
        scene=scene, roadmap=roadmap,
    )
    write_records(records, args.out)
    print(emit_report(summarize(records), format="markdown"), end="")
    return 0


def _cmd_bench_report(args) -> int:
    rows = summarize(read_records(args.infile))
    doc = emit_report(rows, format=args.format)
    if args.out:
        Path(args.out).write_text(doc)
    else:
        print(doc, end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.group == "roadmap":
            return _cmd_roadmap_build(args)
        if args.command == "gen-cases":
            return _cmd_gen_cases(args)
        if args.command == "run":
            return _cmd_bench_run(args)
        return _cmd_bench_report(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"armplan: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
