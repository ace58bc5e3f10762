"""Release gate for the package.

Each test checks one end-to-end guarantee and prints a single pass or fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
The desk-scale synthesis checks share one pinned-seed run via a module
fixture so the gain and ablation checks observe the same corpus.
"""

import hashlib
import importlib.util
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import brute_crit, brute_reconv, random_dag, scale_expr
from priosynth.bench import (
    GeneratorSpec,
    generate_graph,
    generate_suite,
    standard_battery,
    summarize,
)
from priosynth.config import default_run_config_document, load_run_config, prepare_run
from priosynth.dsl import FEATURES, eval_expr, make_expr, parse_expr, print_expr
from priosynth.embedding import build_vocab, cosine_sim, dump_normalizer, retrieve_top_m
from priosynth.graph import canonical_json, compute_crit, compute_reconv, dump_dag
from priosynth.kernels import build_kernel_library, dump_library
from priosynth.loop import LoopConfig, run_ablation, run_loop
from priosynth.providers import ScriptedProvider
from priosynth.scheduler import (
    list_schedule,
    lower_bound_makespan,
    optimal_makespan,
    verify_schedule,
)


def gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def mean_makespan(graphs, expr) -> float:
    total = 0
    for dag in graphs:
        total += list_schedule(dag, eval_expr(expr, dag), measure=False).makespan
    return total / len(graphs)


@pytest.fixture(scope="module")
def desk_run():
    """One pinned-seed synthesis-plus-ablation run over the default corpus."""
    t0 = time.perf_counter()
    cfg = load_run_config(default_run_config_document(seed=0))
    run = prepare_run(cfg)
    report = run_ablation(run.train, run.val, run.kernels, run.normalizer, run.vocab, cfg.loop, modes=cfg.modes)
    return {
        "val": run.val,
        "kernels": run.kernels,
        "normalizer": run.normalizer,
        "report": report,
        "elapsed": time.perf_counter() - t0,
    }


RECORD = Path(__file__).resolve().parent / "artifact_digests.txt"


def recorded_digest(name: str) -> str:
    """The sha256 that ``tests/artifact_digests.txt`` records for ``name``."""
    for line in RECORD.read_text(encoding="utf-8").splitlines():
        digest, recorded = line.split("  ")
        if recorded == name:
            return digest
    raise KeyError(name)


# The seed-0 desk library and normalizer files.  The similarity kernel
# reduces in a fixed order, so a change to that order (or any other drift in
# clustering) shows up here as changed bytes.
DESK_LIBRARY_SHA256 = recorded_digest("desk/0/library.json")
DESK_NORMALIZER_SHA256 = recorded_digest("desk/0/normalizer.json")
# The seed-0 desk ablation.json: the fallback search's winners, every
# recorded schedule length, and the JSON writer's bytes.
DESK_ABLATION_SHA256 = recorded_digest("desk/0/ablation.json")
# The same ablation's outcomes alone (``ablation_outcomes`` in
# scripts/artifact_digests.py): every record's (graph, makespan, feasible,
# score) rows and each mode's mean validation makespan.  A change that
# rewrites only expression text leaves this pin as it is.
DESK_OUTCOMES_SHA256 = recorded_digest("desk/0/outcomes")


def test_desk_library_bytes_are_pinned(desk_run):
    library = hashlib.sha256(dump_library(desk_run["kernels"]).encode("utf-8")).hexdigest()
    normalizer = hashlib.sha256(dump_normalizer(desk_run["normalizer"]).encode("utf-8")).hexdigest()
    assert (library, normalizer) == (DESK_LIBRARY_SHA256, DESK_NORMALIZER_SHA256)


def test_desk_ablation_bytes_are_pinned(desk_run):
    ablation = hashlib.sha256(canonical_json(desk_run["report"]).encode("utf-8")).hexdigest()
    assert ablation == DESK_ABLATION_SHA256


def artifact_digests_script():
    """``scripts/artifact_digests.py`` imported as a module."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_ablation_outcomes_are_pinned(desk_run):
    module = artifact_digests_script()
    outcomes = hashlib.sha256(module.ablation_outcomes(desk_run["report"]).encode("utf-8")).hexdigest()
    assert outcomes == DESK_OUTCOMES_SHA256


# The groups of scripts/artifact_digests.py that run in a few seconds: every
# ablation the fallback synthesizer writes, and one each of the rest.  CI
# diffs the script's whole output against the same record.
FAST_DIGEST_GROUPS = (
    *(f"search/{seed}" for seed in range(20)),
    "large/0",
    "generator",
    *(f"desk/{seed}" for seed in range(5)),
    "cli",
)


def test_artifact_digests_match_the_record():
    module = artifact_digests_script()
    groups = [group for group in module.artifact_groups() if group[0] in FAST_DIGEST_GROUPS]
    assert [prefix for prefix, _ in groups] == list(FAST_DIGEST_GROUPS)
    prefixes = tuple(f"{prefix}/" for prefix in FAST_DIGEST_GROUPS)
    lines = RECORD.read_text(encoding="utf-8").splitlines()
    recorded = [line for line in lines if line.split("  ")[1].startswith(prefixes)]
    computed = list(module.digest_lines(groups))
    assert [line.split("  ")[1] for line in computed] == [line.split("  ")[1] for line in recorded]
    assert computed == recorded


class TestGate:
    def test_1_feasibility_suite(self):
        t0 = time.perf_counter()
        battery = standard_battery(seed=0)
        graphs = []
        for family in ("layered", "chain", "fork_join", "diamond_mesh"):
            spec = GeneratorSpec(family=family, seed=11, label=f"feas-{family}")
            graphs.extend(generate_suite(spec, 250))
        checked = 0
        for dag in graphs:
            bound = lower_bound_makespan(dag)
            for _, expr in battery:
                schedule = list_schedule(dag, eval_expr(expr, dag), measure=False)
                assert schedule.feasible
                assert verify_schedule(dag, schedule.starts) == []
                assert schedule.makespan >= bound
                checked += 1
        elapsed = time.perf_counter() - t0
        gate(
            "1 feasibility-suite",
            checked == len(graphs) * len(battery) and elapsed < 60.0,
            f"{checked} schedules over {len(graphs)} graphs verified in {elapsed:.1f}s (limit 60s)",
        )

    def test_2_exact_oracle_bound(self):
        t0 = time.perf_counter()
        battery = standard_battery(seed=0)
        small = dict(layers=3, width=3, duration_range=(1, 4))
        general = GeneratorSpec(family="layered", seed=23, label="opt-gen", **small)
        chain = GeneratorSpec(family="chain", layers=7, seed=23, label="opt-chain")
        ample = GeneratorSpec(
            family="layered",
            seed=29,
            label="opt-ample",
            capacities=(("alu", 9), ("mem", 9), ("mul", 9)),
            **small,
        )
        cases = [("general", generate_graph(general, i)) for i in range(80)]
        cases += [("chain", generate_graph(chain, i)) for i in range(60)]
        cases += [("ample", generate_graph(ample, i)) for i in range(60)]
        assert len(cases) == 200
        greedy_exact = 0
        for kind, dag in cases:
            assert len(dag) <= 9
            opt = optimal_makespan(dag)
            for _, expr in battery:
                ms = list_schedule(dag, eval_expr(expr, dag), measure=False).makespan
                assert ms >= opt
                if kind in ("chain", "ample"):
                    assert ms == opt
                    greedy_exact += 1
        elapsed = time.perf_counter() - t0
        gate(
            "2 exact-oracle-bound",
            elapsed < 300.0,
            f"200 graphs bounded, {greedy_exact} greedy-optimal checks, in {elapsed:.1f}s (limit 300s)",
        )

    def test_3_structural_oracles(self):
        rng = random.Random("acceptance:structural")
        checked = 0
        for _ in range(500):
            dag = random_dag(rng, rng.randint(1, 12), edge_prob=rng.uniform(0.2, 0.7))
            crit = compute_crit(dag)
            reconv = compute_reconv(dag)
            for v in range(len(dag)):
                assert crit[v] == brute_crit(dag, v)
                assert reconv[v] == brute_reconv(dag, v)
            checked += 1
        gate("3 structural-oracles", checked == 500, f"{checked} graphs matched brute force exactly")

    def test_4_retrieval_exactness(self):
        rng = random.Random("acceptance:retrieval")
        checked = 0
        for _ in range(500):
            size = rng.randint(1, 100)
            entries = [
                (f"k-{index:03d}", np.asarray([rng.uniform(-1.0, 1.0) for _ in range(8)]))
                for index in range(size)
            ]
            query = np.asarray([rng.uniform(-1.0, 1.0) for _ in range(8)])
            ranked = sorted(
                ((eid, cosine_sim(query, vec)) for eid, vec in entries),
                key=lambda pair: (-pair[1], pair[0]),
            )
            for m in (1, 3, 5):
                got = retrieve_top_m(query, entries, m)
                assert [eid for eid, _ in got] == [eid for eid, _ in ranked[:m]]
            checked += 1
        gate("4 retrieval-exactness", checked == 500, f"{checked} libraries matched the full-sort oracle")

    def test_5_summary_statistics(self):
        stats = summarize([52.0, 98.8, 95.2, 71.8])
        ok = abs(stats["mean"] - 79.45) <= 0.01 and abs(stats["std"] - 21.87) <= 0.01
        gate(
            "5 summary-statistics",
            ok,
            f"mean {stats['mean']:.4f} (target 79.45 +/- 0.01), std {stats['std']:.4f} (target 21.87 +/- 0.01)",
        )

    def test_6_desk_scale_gain(self, desk_run):
        t0 = time.perf_counter()
        val = desk_run["val"]
        best = parse_expr(desk_run["report"]["modes"]["full"]["best_expr"])
        baseline = parse_expr("1*level")
        base_ms = mean_makespan(val, baseline)
        best_ms = mean_makespan(val, best)
        gain = 100.0 * (base_ms - best_ms) / base_ms

        def timed_total(expr) -> float:
            total = 0.0
            for dag in val:
                best_rep = None
                for _ in range(3):
                    start = time.perf_counter()
                    list_schedule(dag, eval_expr(expr, dag), measure=False)
                    rep = time.perf_counter() - start
                    best_rep = rep if best_rep is None else min(best_rep, rep)
                total += best_rep
            return total

        base_rt = timed_total(baseline)
        ratio = timed_total(best) / base_rt if base_rt > 0 else 1.0
        elapsed = desk_run["elapsed"] + (time.perf_counter() - t0)
        ok = gain >= 5.0 and ratio <= 2.0 and elapsed < 600.0
        gate(
            "6 desk-scale-gain",
            ok,
            f"latency gain {gain:.2f}% (need >= 5%), runtime ratio {ratio:.3f} (need <= 2.0), "
            f"{elapsed:.1f}s (limit 600s)",
        )

    def test_7_ablation_ordering(self, desk_run):
        rows = desk_run["report"]["modes"]
        ms = {mode: rows[mode]["mean_val_makespan"] for mode in rows}
        ordering = " ".join(
            f"{mode}={ms[mode]:.3f}"
            for mode in ("full", "no_retrieval", "no_motif", "random_kernel")
        )
        ok = ms["full"] <= ms["random_kernel"] and ms["full"] <= ms["no_retrieval"]
        gate(
            "7 ablation-ordering",
            ok,
            f"{ordering}; asserting full <= random_kernel and full <= no_retrieval",
        )

    def test_8_byte_determinism(self):
        spec = GeneratorSpec(family="layered", seed=17, label="det-train")
        train = generate_suite(spec, 12)
        val = generate_suite(GeneratorSpec(family="layered", seed=17, label="det-val"), 6)
        vocab = build_vocab(train + val)
        kernels, normalizer = build_kernel_library(train, vocab=vocab, budget=15)
        cfg = LoopConfig(iterations=2, batch_size=4, seed=17)
        replies = ("1*crit + 1*fanout - 1*level", "2*crit - 1*slack + 1*pressure")

        def one_history() -> str:
            provider = ScriptedProvider(replies)
            result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
            return canonical_json(result.history)

        histories_equal = one_history() == one_history()
        suites_equal = all(
            dump_dag(a) == dump_dag(b)
            for a, b in zip(generate_suite(spec, 12), generate_suite(spec, 12))
        )
        gate(
            "8 byte-determinism",
            histories_equal and suites_equal,
            f"history JSON identical: {histories_equal}; generated suites identical: {suites_equal}",
        )

    def test_9_dsl_round_trip_and_scaling(self):
        rng = random.Random("acceptance:dsl")
        checked = 0
        for _ in range(1000):
            weights: dict[str, float] = {}
            for _ in range(rng.randint(1, 6)):
                name = rng.choice(FEATURES)
                weights[name] = weights.get(name, 0.0) + round(rng.uniform(-8.0, 8.0), 3)
            expr = make_expr(weights)
            assert parse_expr(print_expr(expr)) == expr
            checked += 1
        graphs = generate_suite(GeneratorSpec(family="layered", seed=31, label="scale"), 20)
        battery = standard_battery(seed=0)
        scale_checks = 0
        for dag in graphs:
            for _, expr in battery:
                base = list_schedule(dag, eval_expr(expr, dag), measure=False).makespan
                # powers of two keep float comparisons exact, so order is preserved
                for factor in (0.5, 2.0, 1024.0):
                    scaled = scale_expr(expr, factor)
                    assert (
                        list_schedule(dag, eval_expr(scaled, dag), measure=False).makespan == base
                    )
                    scale_checks += 1
        gate(
            "9 dsl-round-trip",
            checked == 1000,
            f"{checked} expressions round-tripped; {scale_checks} scaling invariance checks",
        )
