#!/usr/bin/env python3
"""Run the pinned desk-scale ablation and print a latency comparison table.

Builds the default corpus for a seed, mines the kernel library, runs the
synthesis loop once per ablation mode, and reports mean validation makespan
plus the improvement of each mode's winner over the level-order baseline.
Artifacts (ablation report, library, normalizer) land in --out.

Usage:
    python scripts/run_desk_ablation.py --seed 0 --out results/desk
"""

import argparse
import json
import sys
import time
from pathlib import Path

from priosynth.config import default_run_config_document, load_run_config, prepare_run
from priosynth.embedding import dump_normalizer
from priosynth.graph import canonical_json
from priosynth.kernels import dump_library
from priosynth.loop import run_ablation
from priosynth.scheduler import baseline_expr_text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("results/desk"))
    parser.add_argument("--config", type=Path, default=None,
                        help="run-config JSON; defaults to the built-in desk config")
    args = parser.parse_args(argv)

    if args.config is not None:
        cfg = load_run_config(str(args.config))
    else:
        cfg = load_run_config(default_run_config_document(seed=args.seed))

    t0 = time.perf_counter()
    run = prepare_run(cfg)
    print(f"corpus {len(run.train)} train / {len(run.val)} val, library {len(run.kernels)} kernels "
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

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "ablation.json").write_text(canonical_json(report), encoding="utf-8")
    (args.out / "library.json").write_text(dump_library(run.kernels), encoding="utf-8")
    (args.out / "normalizer.json").write_text(dump_normalizer(run.normalizer), encoding="utf-8")
    summary = {
        "seed": cfg.seed,
        "baseline_mean_makespan": base_ms,
        "modes": {
            mode: {
                "mean_val_makespan": report["modes"][mode]["mean_val_makespan"],
                "gain_pct": 100.0 * (base_ms - report["modes"][mode]["mean_val_makespan"]) / base_ms,
                "best_expr": report["modes"][mode]["best_expr"],
            }
            for mode in cfg.modes
        },
    }
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")
    print(f"\nwrote {args.out}/ablation.json, library.json, normalizer.json, summary.json")
    print(f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
