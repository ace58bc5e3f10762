#!/usr/bin/env python3
"""Print one ``sha256  name`` line per artifact the package writes.

``tests/artifact_digests.txt`` records the output; a checkout that writes
the recorded bytes passes

    PYTHONPATH=src python scripts/artifact_digests.py | diff tests/artifact_digests.txt -

and a change that moves bytes on purpose regenerates the record.  The
tier-1 suite recomputes a fast subset of the groups and compares it with the
record.

The artifacts cover:
- ``search``-shaped ablations (24 training and 200 validation desk graphs,
  10 iterations, batches of 16) for input seeds 0-19: ``library.json``,
  ``normalizer.json`` and ``ablation.json``, and a ``prompts`` digest of the
  provider prompts of every mode and iteration (see :func:`search_prompts`);
- ``large``-shaped campaigns (four 60x64 and two 80x96 layered graphs through
  the standard battery) for input seeds 0-4: ``campaign.json``, and each
  generated graph as ``dump_dag`` writes it, so the generator's bytes are
  compared directly and not only through the campaign;
- the same six ``large`` graphs alone, as ``dump_dag`` writes them, for input
  seeds 5-14 (the input sets of ``perfbench/run.py --workload large`` seeds 1
  and 2), so the graph builder is checked on more of the sizes it is timed on;
- the four files of ``scripts/run_desk_ablation.py`` for desk seeds 0 and 1,
  and its ``library.json`` and ``normalizer.json`` for desk seeds 2-4, so the
  library build is checked on every desk seed;
- per ablation, an ``outcomes`` digest of what it scheduled (see
  :func:`ablation_outcomes`), so a change that rewrites only expression text
  shows that no schedule moved;
- the output of ``priosynth stats``, ``report --zero-runtime`` (text and csv)
  and ``schedule --zero-runtime --verify`` under three expressions, on a
  generated six-graph suite.

Everything runs through the package's public API and CLI.  One run takes
about 10 s on a 2-CPU x86_64 machine.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from priosynth import bench, cli, config, embedding, kernels, loop
from priosynth.graph import canonical_json, dump_dag

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_desk_ablation  # noqa: E402

LARGE_SUITES = ((60, 64, 4), (80, 96, 2))
CLI_EXPRESSIONS = ("1*level", "2*crit + 1*fanout - 1*level", "1*reconv - 0.5*slack + 0.25*pressure")


def ablation_outcomes(report: dict) -> str:
    """An ablation report without its expression text: per mode, every
    record's (graph, makespan, feasible, score) rows and the winner's mean
    validation makespan."""
    return canonical_json(
        {
            mode: {
                "mean_val_makespan": row["mean_val_makespan"],
                "records": [
                    [[e["graph"], e["makespan"], e["feasible"], e["score"]] for e in record["evals"]]
                    for record in row["history"]["records"]
                ],
            }
            for mode, row in report["modes"].items()
        }
    )


def search_prompts(run: config.PreparedRun, cfg: config.RunConfig) -> str:
    """The prompt each mode's provider would get in each iteration, from that
    iteration's batch and kernel selection (the whole-graph kernels for
    ``no_motif``) with no feedback.  A run without a provider never renders a
    prompt, so its kernel section is covered only here."""
    vectors: kernels.QueryVectors = {}
    prompts = []
    for mode in cfg.modes:
        mode_cfg = replace(cfg.loop, ablation=mode)
        library = run.kernels
        if mode == "no_motif":
            library = loop.whole_graph_kernels(run.train, run.normalizer, vectors)
        index = kernels.KernelIndex(library)
        for iteration in range(mode_cfg.iterations):
            batch = loop.sample_batch(run.train, mode_cfg, iteration)
            selections = loop.select_kernels(batch, index, run.normalizer, mode_cfg, iteration, vectors)
            prompts.append(loop.build_prompt(batch, selections, []))
    return "".join(prompts)


def search_artifacts(seed: int) -> dict[str, str]:
    doc = config.default_run_config_document(seed)
    doc["train"]["count"] = 24
    doc["val"]["count"] = 200
    doc["loop"]["iterations"] = 10
    doc["loop"]["batch_size"] = 16
    cfg = config.load_run_config(doc)
    run = config.prepare_run(cfg)
    report = loop.run_ablation(run.train, run.val, run.kernels, run.normalizer, run.vocab, cfg.loop, modes=cfg.modes)
    return {
        "library.json": kernels.dump_library(run.kernels),
        "normalizer.json": embedding.dump_normalizer(run.normalizer),
        "ablation.json": canonical_json(report),
        "outcomes": ablation_outcomes(report),
        "prompts": search_prompts(run, cfg),
    }


def large_suites(seed: int) -> dict[str, list]:
    suites = {}
    for layers, width, graphs in LARGE_SUITES:
        spec = bench.GeneratorSpec("layered", layers=layers, width=width, seed=seed, label=f"large-{layers}x{width}")
        suites[f"layered-{layers}x{width}"] = [bench.generate_graph(spec, index) for index in range(graphs)]
    return suites


def graph_dumps(suites: dict[str, list]) -> dict[str, str]:
    return {f"{suite}/{dag.name}.json": dump_dag(dag) for suite, dags in suites.items() for dag in dags}


def large_artifacts(seed: int) -> dict[str, str]:
    suites = large_suites(seed)
    report = bench.run_campaign(suites, bench.standard_battery(seed), measure_runtime=False)
    return {"campaign.json": canonical_json(report), **graph_dumps(suites)}


def desk_artifacts(seed: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        run_desk_ablation.main(["--seed", str(seed), "--out", tmp])
        out = {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(tmp).iterdir())}
    out["outcomes"] = ablation_outcomes(json.loads(out["ablation.json"]))
    return out


def desk_library(seed: int) -> dict[str, str]:
    """The library and normalizer that ``scripts/run_desk_ablation.py``
    writes for ``seed``, without running the ablation."""
    run = config.prepare_run(config.load_run_config(config.default_run_config_document(seed=seed)))
    return {
        "library.json": kernels.dump_library(run.kernels),
        "normalizer.json": embedding.dump_normalizer(run.normalizer),
    }


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"priosynth {' '.join(argv)} exited {code}")
    return out.getvalue()


def cli_artifacts() -> dict[str, str]:
    spec = bench.GeneratorSpec("layered", layers=4, width=4, seed=0, label="cli")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for dag in bench.generate_suite(spec, 6):
            path = Path(tmp) / f"{dag.name}.json"
            path.write_text(dump_dag(dag), encoding="utf-8")
            paths.append(str(path))
        out = {
            "stats": run_cli("stats", *paths),
            "report.txt": run_cli("report", "--graphs", tmp, "--zero-runtime"),
            "report.csv": run_cli("report", "--graphs", tmp, "--zero-runtime", "--format", "csv"),
        }
        for index, text in enumerate(CLI_EXPRESSIONS):
            out[f"schedule-{index}"] = "".join(
                run_cli("schedule", "--graph", path, "--heuristic", text, "--zero-runtime", "--verify")
                for path in paths
            )
    return out


def artifact_groups() -> list[tuple[str, Callable[[], dict[str, str]]]]:
    """Every ``(prefix, build)`` pair this script digests, in output order;
    ``build()`` returns the group's artifacts by name."""
    groups = [(f"search/{seed}", lambda seed=seed: search_artifacts(seed)) for seed in range(20)]
    groups += [(f"large/{seed}", lambda seed=seed: large_artifacts(seed)) for seed in range(5)]
    groups += [(f"large/{seed}", lambda seed=seed: graph_dumps(large_suites(seed))) for seed in range(5, 15)]
    groups += [(f"desk/{seed}", lambda seed=seed: desk_artifacts(seed)) for seed in range(2)]
    groups += [(f"desk/{seed}", lambda seed=seed: desk_library(seed)) for seed in range(2, 5)]
    groups.append(("cli", cli_artifacts))
    return groups


def digest_lines(groups: Iterable[tuple[str, Callable[[], dict[str, str]]]]) -> Iterator[str]:
    """One ``sha256  prefix/name`` line per artifact of ``groups``."""
    for prefix, build in groups:
        for name, text in build().items():
            yield f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {prefix}/{name}"


def main() -> int:
    for line in digest_lines(artifact_groups()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
