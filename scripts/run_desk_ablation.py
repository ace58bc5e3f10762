#!/usr/bin/env python3
"""Run the pinned desk-scale ablation and print a latency comparison table.

Builds the default corpus for a seed, mines the kernel library, runs the
synthesis loop once per ablation mode, and reports mean validation makespan
plus the improvement of each mode's winner over the level-order baseline.
It also pairs each mode's winner with the ``no_retrieval`` and
``random_kernel`` winners graph by graph: how many validation graphs it
schedules shorter, longer or the same, and the exact two-sided sign-test p
of those wins and losses.  Artifacts (ablation report, library, normalizer,
summary) land in --out; with several seeds, each seed's land in
--out/seed-N and --out/summary.json pools the paired counts over the seeds.

Usage:
    python scripts/run_desk_ablation.py --seed 0 --out results/desk
    python scripts/run_desk_ablation.py --seeds 0,1,2,3,4 --out results/desk
"""

import argparse
import math
import sys
import time
from pathlib import Path

from priosynth.config import default_run_config_document, load_run_config, prepare_run
from priosynth.embedding import dump_normalizer
from priosynth.graph import canonical_json
from priosynth.kernels import dump_library
from priosynth.loop import run_ablation
from priosynth.scheduler import baseline_expr_text

REFERENCES = ("no_retrieval", "random_kernel")


def sign_test_p(better: int, worse: int) -> float:
    """Exact two-sided sign-test p of ``better`` wins against ``worse``
    losses (ties dropped): twice the Binomial(n, 1/2) tail at the smaller
    count, capped at 1."""
    n = better + worse
    tail = sum(math.comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2**n)


def paired_row(better: int, worse: int, tied: int) -> dict:
    return {"better": better, "worse": worse, "tied": tied, "p": sign_test_p(better, worse)}


def paired_counts(report: dict, mode: str, reference: str) -> dict:
    """Validation graphs on which ``mode``'s winner has a shorter, longer or
    equal makespan than ``reference``'s winner."""

    def winner_makespans(name: str) -> list:
        row = report["modes"][name]
        return [e["makespan"] for e in row["history"]["records"][row["best_iteration"]]["evals"]]

    pairs = list(zip(winner_makespans(mode), winner_makespans(reference)))
    better = sum(1 for ours, theirs in pairs if ours < theirs)
    worse = sum(1 for ours, theirs in pairs if ours > theirs)
    return paired_row(better, worse, len(pairs) - better - worse)


def print_paired(paired: dict) -> None:
    references = sorted({ref for row in paired.values() for ref in row}, key=REFERENCES.index)
    header = f"{'mode':14s}" + "".join(f" {'vs ' + ref:>24s}" for ref in references)
    print(f"\nper-graph winners, better/worse/tied and sign-test p\n{header}\n{'-' * len(header)}")
    for mode, row in paired.items():
        cells = [row.get(ref) for ref in references]
        texts = [f"{c['better']}/{c['worse']}/{c['tied']} p={c['p']:.3f}" if c else "" for c in cells]
        print(f"{mode:14s}" + "".join(f" {text:>24s}" for text in texts))


def run_seed(cfg, out: Path, t0: float) -> dict:
    """One seed's ablation: print its tables, write its four files to
    ``out`` and return its summary."""
    run = prepare_run(cfg)
    print(f"seed {cfg.seed}: corpus {len(run.train)} train / {len(run.val)} val, library {len(run.kernels)} kernels "
          f"({time.perf_counter() - t0:.1f}s)")

    report = run_ablation(run.train, run.val, run.kernels, run.normalizer, run.vocab, cfg.loop, modes=cfg.modes)
    # Every mode schedules the same validation graphs under the same baseline.
    base_evals = report["modes"][cfg.modes[0]]["history"]["baseline"]["evals"]
    base_ms = sum(e["makespan"] for e in base_evals) / len(base_evals)

    print(f"\nbaseline {baseline_expr_text()!r}: mean validation makespan {base_ms:.3f}\n")
    header = f"{'mode':14s} {'mean makespan':>13s} {'gain %':>7s} {'iter':>4s}  best expression"
    print(header)
    print("-" * len(header))
    for mode in cfg.modes:
        row = report["modes"][mode]
        gain = 100.0 * (base_ms - row["mean_val_makespan"]) / base_ms
        print(f"{mode:14s} {row['mean_val_makespan']:13.3f} {gain:7.2f} "
              f"{row['best_iteration']:4d}  {row['best_expr']}")
    paired = {
        mode: {ref: paired_counts(report, mode, ref) for ref in REFERENCES if ref in cfg.modes and ref != mode}
        for mode in cfg.modes
    }
    print_paired(paired)

    out.mkdir(parents=True, exist_ok=True)
    (out / "ablation.json").write_text(canonical_json(report), encoding="utf-8")
    (out / "library.json").write_text(dump_library(run.kernels), encoding="utf-8")
    (out / "normalizer.json").write_text(dump_normalizer(run.normalizer), encoding="utf-8")
    summary = {
        "seed": cfg.seed,
        "baseline_mean_makespan": base_ms,
        "modes": {
            mode: {
                "mean_val_makespan": report["modes"][mode]["mean_val_makespan"],
                "gain_pct": 100.0 * (base_ms - report["modes"][mode]["mean_val_makespan"]) / base_ms,
                "best_expr": report["modes"][mode]["best_expr"],
                "paired": paired[mode],
            }
            for mode in cfg.modes
        },
    }
    (out / "summary.json").write_text(canonical_json(summary), encoding="utf-8")
    print(f"\nwrote {out}/ablation.json, library.json, normalizer.json, summary.json\n")
    return summary


def pool(summaries: list) -> dict:
    """Paired counts summed over seeds, with the sign-test p of the sums."""
    pooled: dict = {}
    for summary in summaries:
        for mode, row in summary["modes"].items():
            for ref, counts in row["paired"].items():
                total = pooled.setdefault(mode, {}).setdefault(ref, [0, 0, 0])
                for i, key in enumerate(("better", "worse", "tied")):
                    total[i] += counts[key]
    return {mode: {ref: paired_row(*total) for ref, total in row.items()} for mode, row in pooled.items()}


def seed_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", "--seeds", dest="seeds", type=seed_list, default=None,
                        help="one seed, or comma-separated seeds such as 0,1,2,3,4 (default 0)")
    parser.add_argument("--out", type=Path, default=Path("results/desk"))
    parser.add_argument("--config", type=Path, default=None,
                        help="run-config JSON; defaults to the built-in desk config")
    args = parser.parse_args(argv)
    if args.config is not None and args.seeds is not None:
        parser.error("--config carries its own seed and cannot be combined with --seed")

    t0 = time.perf_counter()
    if args.config is not None:
        configs = [load_run_config(str(args.config))]
    else:
        configs = [load_run_config(default_run_config_document(seed=seed)) for seed in args.seeds or [0]]
    if len(configs) == 1:
        run_seed(configs[0], args.out, t0)
    else:
        summaries = [run_seed(cfg, args.out / f"seed-{cfg.seed}", t0) for cfg in configs]
        pooled = pool(summaries)
        print(f"pooled over seeds {', '.join(str(cfg.seed) for cfg in configs)}")
        print_paired(pooled)
        (args.out / "summary.json").write_text(
            canonical_json({"seeds": [cfg.seed for cfg in configs], "paired": pooled}), encoding="utf-8"
        )
        print(f"\nwrote {args.out}/summary.json")
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
