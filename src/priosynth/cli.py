"""Command line front end.

Subcommands: gen, stats, kernels build, retrieve, schedule, synthesize,
ablate, report.  Exit codes: 0 success, 2 usage (argparse), 3 malformed
input, 4 provider failure, 5 anything else.  Outputs are canonical JSON, so
identical inputs and seeds reproduce identical bytes; manifests carry no
timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import __version__
from .bench import (
    FAMILIES,
    GeneratorSpec,
    generate_suite,
    render_report_csv,
    render_report_text,
    run_campaign,
    standard_battery,
)
from .config import (
    ConfigError,
    LibraryParams,
    _generator_to_document,
    load_run_config,
    prepare_run,
    run_config_to_document,
)
from .dsl import dump_heuristic, eval_expr, load_heuristic_file, parse_expr, print_expr
from .embedding import build_vocab, dump_normalizer, load_normalizer
from .graph import Dag, canonical_json, dump_dag, load_dag_file
from .kernels import build_kernel_library, dump_library, load_library, retrieve_kernels
from .loop import run_ablation, run_loop
from .providers import ProviderError
from .scheduler import dump_schedule, list_schedule, verify_schedule

EXIT_OK = 0
EXIT_FORMAT = 3
EXIT_PROVIDER = 4
EXIT_OTHER = 5


def _parse_pairs(text: str, cast, what: str) -> dict:
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"bad {what} entry {chunk!r}; expected name=value")
        name, _, value = chunk.partition("=")
        try:
            out[name.strip()] = cast(value.strip())
        except ValueError:
            raise ConfigError(f"bad {what} value {value!r}") from None
    if not out:
        raise ConfigError(f"{what} must contain at least one name=value pair")
    return out


def _format_pairs(pairs) -> str:
    """The ``name=value`` text that :func:`_parse_pairs` reads back to ``pairs``."""
    return ",".join(f"{name}={value}" for name, value in pairs)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, config_doc, seed: int, inputs: dict[str, str]) -> None:
    manifest = {
        "command": command,
        "config": config_doc,
        "seed": seed,
        "version": __version__,
        "inputs": inputs,
        "output_dir": str(out_dir),
    }
    _write(out_dir / "manifest.json", canonical_json(manifest))


def _load_graph_inputs(items: list[str]) -> list[Dag]:
    """Accept graph files and/or directories (expanded to sorted *.json)."""
    paths: list[Path] = []
    for item in items:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(q for q in p.glob("*.json") if q.name != "manifest.json"))
        else:
            paths.append(p)
    if not paths:
        raise ConfigError("no graph files found")
    return [load_dag_file(p) for p in paths]


def cmd_gen(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        layers=args.layers,
        width=args.width,
        edge_prob=args.edge_prob,
        type_weights=tuple(sorted(_parse_pairs(args.types, float, "--types").items())),
        duration_range=(args.durations[0], args.durations[1]),
        capacities=tuple(sorted(_parse_pairs(args.capacities, int, "--capacities").items())),
        seed=args.seed,
        label=args.label or args.family,
    )
    out_dir = Path(args.out)
    dags = generate_suite(spec, args.count)
    for dag in dags:
        _write(out_dir / f"{dag.name}.json", dump_dag(dag))
    _write_manifest(out_dir, "gen", _generator_to_document(spec, args.count), spec.seed, {})
    print(f"wrote {len(dags)} graphs to {out_dir}")
    return EXIT_OK


def cmd_stats(args) -> int:
    for item in args.graphs:
        dag = load_dag_file(item)
        stats = dag.stats()
        doc = {
            "name": dag.name,
            "nodes": len(dag),
            "edges": len(dag.edges),
            "cp_length": stats.cp_length,
            "pressure": stats.pressure,
            "per_node": {
                str(v): {
                    "level": stats.level[v],
                    "crit": stats.crit[v],
                    "slack": stats.slack[v],
                    "fanout": stats.fanout[v],
                    "fanin": stats.fanin[v],
                    "reconv": stats.reconv[v],
                }
                for v in range(len(dag))
            },
        }
        sys.stdout.write(canonical_json(doc))
    return EXIT_OK


def cmd_kernels_build(args) -> int:
    train = _load_graph_inputs(args.train)
    vocab = build_vocab(train)
    kernels, normalizer = build_kernel_library(
        train,
        vocab=vocab,
        k=args.k,
        theta=args.theta,
        budget=args.budget,
        chain_min_len=args.chain_min_len,
    )
    out = Path(args.out)
    _write(out, dump_library(kernels))
    normalizer_path = Path(args.normalizer_out) if args.normalizer_out else out.with_suffix(".normalizer.json")
    _write(normalizer_path, dump_normalizer(normalizer))
    print(f"wrote {len(kernels)} kernels to {out} (normalizer: {normalizer_path})")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    kernels = load_library(Path(args.library).read_text(encoding="utf-8"))
    normalizer = load_normalizer(Path(args.normalizer).read_text(encoding="utf-8"))
    if not normalizer.vocab:
        raise ConfigError("normalizer file does not record a vocabulary; rebuild the library")
    dag = load_dag_file(args.graph)
    matches = retrieve_kernels(dag, kernels, normalizer, normalizer.vocab, args.m)
    doc = {
        "graph": dag.name,
        "m": args.m,
        "matches": [{"id": kern.id, "similarity": sim} for kern, sim in matches],
    }
    sys.stdout.write(canonical_json(doc))
    return EXIT_OK


def cmd_schedule(args) -> int:
    dag = load_dag_file(args.graph)
    if args.heuristic is not None:
        expr = parse_expr(args.heuristic)
    elif args.heuristic_file is not None:
        expr = load_heuristic_file(args.heuristic_file)
    else:
        raise ConfigError("provide --heuristic or --heuristic-file")
    schedule = list_schedule(dag, eval_expr(expr, dag), measure=not args.zero_runtime)
    text = dump_schedule(schedule)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    if args.verify:
        violations = verify_schedule(dag, schedule.starts) if schedule.feasible else ["schedule is infeasible"]
        if violations:
            for violation in violations:
                print(f"violation: {violation}", file=sys.stderr)
            return EXIT_OTHER
    return EXIT_OK


def cmd_synthesize(args) -> int:
    cfg = load_run_config(args.config)
    run = prepare_run(cfg)
    result = run_loop(run.train, run.val, run.kernels, run.normalizer, run.vocab, cfg.loop)
    out_dir = Path(args.out)
    _write(out_dir / "history.json", canonical_json(result.history))
    _write(out_dir / "library.json", dump_library(run.kernels))
    _write(out_dir / "normalizer.json", dump_normalizer(run.normalizer))
    comment = (
        f"selected at iteration {result.best_iteration} "
        f"(mean validation score {result.history['best']['mean_score']:.6f})"
    )
    _write(out_dir / "best.txt", dump_heuristic(result.best_expr, comment))
    inputs = {}
    config_path = Path(args.config)
    if config_path.is_file():
        inputs[str(config_path)] = _sha256(config_path)
    _write_manifest(out_dir, "synthesize", run_config_to_document(cfg), cfg.seed, inputs)
    print(f"best: {print_expr(result.best_expr)} (iteration {result.best_iteration})")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config)
    run = prepare_run(cfg)
    report = run_ablation(run.train, run.val, run.kernels, run.normalizer, run.vocab, cfg.loop, modes=cfg.modes)
    out_dir = Path(args.out)
    _write(out_dir / "ablation.json", canonical_json(report))
    inputs = {}
    config_path = Path(args.config)
    if config_path.is_file():
        inputs[str(config_path)] = _sha256(config_path)
    _write_manifest(out_dir, "ablate", run_config_to_document(cfg), cfg.seed, inputs)
    width = max(len(mode) for mode in report["modes"])
    for mode in cfg.modes:
        row = report["modes"][mode]
        print(
            f"{mode:<{width}}  mean val makespan {row['mean_val_makespan']:.3f}  "
            f"best {row['best_expr']}"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    dags = _load_graph_inputs(args.graphs)
    suite_name = args.suite_name
    battery = standard_battery(args.seed)
    report = run_campaign({suite_name: dags}, battery, measure_runtime=not args.zero_runtime)
    if args.out:
        out_dir = Path(args.out)
        _write(out_dir / "campaign.json", canonical_json(report))
        _write(out_dir / "report.txt", render_report_text(report) + "\n")
        _write(out_dir / "report.csv", render_report_csv(report))
        print(f"wrote campaign report to {out_dir}")
    elif args.format == "csv":
        sys.stdout.write(render_report_csv(report))
    else:
        sys.stdout.write(render_report_text(report) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priosynth",
        description="Synthesize and evaluate priority functions for resource-constrained DAG scheduling.",
    )
    parser.add_argument("--version", action="version", version=f"priosynth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded graph suite")
    p.add_argument("--out", required=True, help="output directory")
    generator = GeneratorSpec()
    p.add_argument("--family", default=generator.family, choices=FAMILIES)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=generator.seed)
    p.add_argument("--layers", type=int, default=generator.layers)
    p.add_argument("--width", type=int, default=generator.width)
    p.add_argument("--edge-prob", type=float, default=generator.edge_prob)
    p.add_argument("--durations", type=int, nargs=2, default=generator.duration_range, metavar=("LO", "HI"))
    p.add_argument("--types", default=_format_pairs(generator.type_weights), help="comma list of type=weight")
    p.add_argument("--capacities", default=_format_pairs(generator.capacities), help="comma list of type=capacity")
    p.add_argument("--label", default=None, help="random-stream label (default: family name)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="print structural features of graphs")
    p.add_argument("graphs", nargs="+", help="graph files")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("kernels", help="kernel library operations")
    kernels_sub = p.add_subparsers(dest="kernels_command", required=True)
    pb = kernels_sub.add_parser("build", help="mine and cluster a kernel library")
    pb.add_argument("--train", nargs="+", required=True, help="graph files or directories")
    pb.add_argument("--out", required=True, help="library JSON path")
    pb.add_argument("--normalizer-out", default=None, help="normalizer JSON path")
    library = LibraryParams()
    pb.add_argument("--k", type=int, default=library.k, help="reconvergence search depth in edges")
    pb.add_argument("--theta", type=float, default=library.theta, help="clustering similarity threshold")
    pb.add_argument("--budget", type=int, default=library.budget, help="maximum kernels kept")
    pb.add_argument("--chain-min-len", type=int, default=library.chain_min_len)
    pb.set_defaults(func=cmd_kernels_build)

    p = sub.add_parser("retrieve", help="top-m kernels for a graph")
    p.add_argument("--library", required=True)
    p.add_argument("--normalizer", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("-m", type=int, default=5)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("schedule", help="run the list scheduler on one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--heuristic", default=None, help="inline expression (wins over --heuristic-file)")
    p.add_argument("--heuristic-file", default=None)
    p.add_argument("--out", default=None, help="schedule JSON path (default: stdout)")
    p.add_argument("--verify", action="store_true", help="check the schedule and fail on violations")
    p.add_argument("--zero-runtime", action="store_true", help="report runtime_ms as 0 for reproducible bytes")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("synthesize", help="run the full synthesis loop")
    p.add_argument("--config", required=True, help="run-config JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("ablate", help="run the loop once per ablation mode")
    p.add_argument("--config", required=True, help="run-config JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="run the standard battery over graphs")
    p.add_argument("--graphs", nargs="+", required=True, help="graph files or directories")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite-name", default="suite")
    p.add_argument("--out", default=None, help="output directory (default: print)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--zero-runtime", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except ValueError as exc:
        # GraphFormatError, ExprError, ConfigError, and JSON decode errors
        # are all ValueErrors: malformed input, exit 3.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER
    except KeyboardInterrupt:
        return EXIT_OTHER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
