#!/usr/bin/env python3
"""Benchmark for priosynth: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py                       # every workload, each in a fresh process
    python3 perfbench/run.py --workload large --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload search --trace 1

One workload run cycles through the input sets of its seed, repeating setup
plus body until ``--seconds`` have passed and each set has run, and reports
medians of the times, scaled for the machine's speed by ``reference.py``.
It replays every schedule behind each input set's result through the
independent oracle in ``oracle.py`` and checks that every repetition of an
input set produced the same artifact bytes.  With ``--trace 1`` it then
runs once more with timing wrappers installed and reports the per-layer
metrics instead; that run's artifacts must hash equal to the untraced ones.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Artifacts and the trace file go
to ``.perfbench_out/`` at the repository root.

The package is imported from ``src/`` beside this directory; without it the
benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("desk", "search", "large")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_lb_ratio", "ratio"),
)


def import_package():
    """Import ``priosynth`` from this checkout's ``src/`` and the benchmark's
    own modules; exit 1 if the package is missing or found elsewhere."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import priosynth
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import priosynth from {src}: {exc}")
    if not Path(priosynth.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: priosynth was imported from {priosynth.__file__}, not {src}")


def digest(artifacts: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in sorted(artifacts.items())}


def metric_lines(metrics: dict[str, dict]) -> list[str]:
    """One row per metric: name, value, unit."""
    width = max(len(name) for name in metrics)
    return [f"{name:{width}s}  {row['value']:>14.6g}  {row['unit']}" for name, row in metrics.items()]


def table_lines(rows: dict[str, dict[str, dict]], by_metric: bool = False) -> list[str]:
    """Metrics of several workloads: one row per workload and a column per
    metric headed ``name [unit]``, or transposed with ``by_metric``."""
    names: dict[str, str] = {}
    for metrics in rows.values():
        for name, cell in metrics.items():
            names.setdefault(name, cell["unit"])

    def value(workload: str, name: str) -> str:
        cell = rows[workload].get(name)
        return f"{cell['value']:>14.6g}" if cell else f"{'-':>14s}"

    if by_metric:
        width = max(len(f"{name} [{unit}]") for name, unit in names.items())
        lines = [f"{'metric':{width}s}  " + "  ".join(f"{w:>14s}" for w in rows)]
        for name, unit in names.items():
            lines.append(f"{name + ' [' + unit + ']':{width}s}  " + "  ".join(value(w, name) for w in rows))
        return lines
    heads = [f"{name} [{unit}]" for name, unit in names.items()]
    width = max(14, *(len(head) for head in heads))
    lines = ["  ".join([f"{'workload':8s}"] + [f"{head:>{width}s}" for head in heads])]
    for workload in rows:
        lines.append("  ".join([f"{workload:8s}"] + [f"{value(workload, name):>{width}s}" for name in names]))
    return lines


class Run:
    """One workload at one seed: timed repetitions, checks, optional trace.

    A seed stands for ``workload.input_sets`` input sets, generated from the
    input seeds ``seed * input_sets`` onwards, and the repetitions cycle
    through them.  The medians then average over several inputs, so how much
    work one seed's inputs happen to make moves them less.

    A workload with a reference (see ``reference.py``) runs it after each
    repetition; ``scales`` turns those times into one factor per
    repetition."""

    def __init__(self, workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.input_seeds = [seed * workload.input_sets + k for k in range(workload.input_sets)]
        self.setups: list[float] = []
        self.totals: list[float] = []
        self.references: list[float] = []
        # sha256 of each input set's artifacts, from its first repetition.
        self.digests: dict[int, dict[str, str]] = {}
        self.first = None
        self.peak_rss_mb = 0.0
        self.ratios: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repeat(self) -> None:
        """Setup plus body until their times add up to ``seconds`` and every
        input set has run at least once.  The first repetition of each input
        set is checked right after it, outside the timed spans; later ones
        must reproduce its artifact bytes.  Peak RSS is read after the first
        repetition: later ones add only allocator fragmentation, which grows
        with how many repetitions the machine's speed allows.  An exception
        ends the run without a result."""
        measured = 0.0
        while len(self.totals) < len(self.input_seeds) or measured < self.seconds:
            input_seed = self.input_seeds[len(self.totals) % len(self.input_seeds)]
            t0 = time.perf_counter()
            inputs = self.workload.setup(input_seed)
            t1 = time.perf_counter()
            outcome = self.workload.body(inputs, input_seed)
            t2 = time.perf_counter()
            self.attempted += 1
            self.setups.append(t1 - t0)
            self.totals.append(t2 - t1)
            if self.first is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.first = outcome
            measured += t2 - t0 + self.run_reference()
            found = digest(outcome.artifacts)
            if input_seed in self.digests:
                self.compare_digest(input_seed, found, f"repetition {len(self.totals) - 1}")
            else:
                self.digests[input_seed] = found
                self.check(inputs, outcome, input_seed)
            inputs = outcome = None  # free this repetition before the next

    def compare_digest(self, input_seed: int, found: dict[str, str], what: str) -> None:
        if found != self.digests[input_seed]:
            self.failed += 1
            self.problems.append(f"{what}: artifacts of input seed {input_seed} differ from its first repetition's")

    def check(self, inputs, outcome, input_seed: int) -> None:
        """The oracle on every schedule behind one outcome."""
        ratios, problems = self.workload.check(inputs, outcome, input_seed)
        self.ratios.extend(ratios)
        self.attempted += len(ratios)
        self.failed += len(problems)
        self.problems.extend(problems)

    def run_reference(self) -> float:
        """One pass of the workload's reference, if it has one; its seconds."""
        if self.workload.reference is None:
            return 0.0
        self.references.append(self.workload.reference.run())
        return self.references[-1]

    def scales(self) -> list[float]:
        """Per repetition, the reference's nominal time over the mean of the
        passes just before and after it (only after, for the first, so that
        its peak RSS is the workload's own): below 1 while the machine runs
        slow.  All 1 without a reference."""
        if self.workload.reference is None:
            return [1.0] * len(self.totals)
        around = self.references[:1] + self.references
        nominal = self.workload.reference.nominal_s
        return [2 * nominal / (before + after) for before, after in zip(around, around[1:])]

    def traced(self):
        """The first input set's setup plus body once more, with the
        wrappers installed."""
        import layers
        from spans import Tracer, install, uninstall

        input_seed = self.input_seeds[0]
        tracer = Tracer()
        undo = install(tracer, layers.targets())
        try:
            t0 = time.perf_counter()
            inputs = self.workload.setup(input_seed)
            t1 = time.perf_counter()
            outcome = self.workload.body(inputs, input_seed)
            t2 = time.perf_counter()
        finally:
            uninstall(undo)
        self.attempted += 1
        self.compare_digest(input_seed, digest(outcome.artifacts), "the traced run")
        return tracer, t1 - t0, t2 - t1


def environment_line() -> str:
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, {platform.machine()}, "
        f"nproc {len(os.sched_getaffinity(0))}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}"
    )


def golden_lines(workload: str, digests: dict[int, dict[str, str]]) -> list[str]:
    """Compare artifact hashes with the ones ``golden.json`` records per
    input seed.  Drift is reported, not failed: a change may alter outputs
    on purpose."""
    recorded = json.loads((HERE / "golden.json").read_text(encoding="utf-8")).get(workload, {})
    lines = []
    for input_seed, found in digests.items():
        expected = recorded.get(str(input_seed))
        for name, value in found.items():
            if expected is None:
                verdict = "no recorded hash for this input seed"
            elif expected.get(name) == value:
                verdict = "matches golden.json"
            else:
                verdict = f"DRIFT from golden.json {expected.get(name)}"
            lines.append(f"  input seed {input_seed:<4d} {name:16s} sha256 {value}  {verdict}")
    return lines


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    import layers
    from workloads import WORKLOADS, modes_differ

    workload = WORKLOADS[name]
    run = Run(workload, seed, seconds)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"environment: {environment_line()}")
    run.repeat()
    lb_ratio = sum(run.ratios) / len(run.ratios)
    gain = workload.gain_pct(run.first)
    differ = modes_differ(run.first)
    out_dir = OUT / f"{name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for artifact, text in run.first.artifacts.items():
        (out_dir / artifact).write_text(text, encoding="utf-8")
    run.first = None

    scales = run.scales()
    setups = [t * k for t, k in zip(run.setups, scales)]
    totals = [t * k for t, k in zip(run.totals, scales)]
    print("body s per repetition: " + ", ".join(f"{t:.4f}" for t in run.totals))
    print("setup s per repetition: " + ", ".join(f"{t:.4f}" for t in run.setups))
    if run.workload.reference is not None:
        print(f"reference s ({run.workload.reference.run.__name__}, nominal "
              f"{run.workload.reference.nominal_s} s): " + ", ".join(f"{t:.4f}" for t in run.references))
    print(f"medians of {len(run.totals)} repetitions: body {statistics.median(run.totals):.4f} s as measured, {statistics.median(totals):.4f} s scaled; "
          f"setup {statistics.median(run.setups):.4f} s as measured, {statistics.median(setups):.4f} s scaled")
    print(f"input seeds {run.input_seeds[0]}-{run.input_seeds[-1]}, cycled; artifacts of each:")
    print("\n".join(golden_lines(name, run.digests)))
    end_to_end = {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(totals),
        "peak_rss_mb": run.peak_rss_mb,
        "makespan_lb_ratio": lb_ratio,
    }
    untraced = {metric: {"value": end_to_end[metric], "unit": unit} for metric, unit in END_TO_END}
    print("\n".join(metric_lines(untraced)))
    metrics = untraced
    print(f"gain_pct {gain:.6g} % over 1*level (not bounded: it depends on the seed)")

    if trace:
        tracer, traced_setup, traced_total = run.traced()
        # The traced run repeats the first input set, so it is compared
        # with that set's untraced repetitions.
        overhead = traced_total - statistics.median(run.totals[:: len(run.input_seeds)])
        print(f"traced run: setup {traced_setup:.4f} s, body {traced_total:.4f} s, "
              f"overhead {overhead:.4f} s over the untraced median of the same input set")
        print("\n".join(layers.split_lines(tracer, traced_setup + traced_total)))
        values = layers.per_layer(tracer, differ, overhead)
        trace_path = out_dir / "trace.json"
        trace_path.write_text(json.dumps(layers.trace_document(tracer.spans, tracer.counts)), encoding="utf-8")
        print(f"wrote {len(tracer.spans)} spans to {trace_path}")
        metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in layers.PER_LAYER}
        print("per-layer (traced):")
        print("\n".join(metric_lines(metrics)))
    fail_frac = run.failed / run.attempted
    print(f"fail_frac {fail_frac:.6g} ratio ({run.failed} of {run.attempted} operations failed)")
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "environment": environment_line(),
        "body_s": run.totals,
        "setup_s": run.setups,
        "reference_s": run.references,
        "scales": scales,
        "input_seeds": run.input_seeds,
        "sha256": {str(k): v for k, v in run.digests.items()},
        "end_to_end": untraced,
        "gain_pct": gain,
        "fail_frac": fail_frac,
        "result": result,
    }
    (out_dir / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh single-threaded process, then one table.  A
    workload whose process fails counts as one failed run of one."""
    rows: dict[str, dict] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"perfbench: workload {name} exited with status {child.returncode}", file=sys.stderr)
            rows[name] = {"fail_frac": {"value": 1.0, "unit": "ratio"}}
            status = 1
            continue
        record = json.loads((OUT / f"{name}-seed{seed}" / f"result-trace{int(trace)}.json").read_text(encoding="utf-8"))
        rows[name] = {**record["end_to_end"], **record["result"]["metrics"]}
        rows[name]["gain_pct"] = {"value": record["gain_pct"], "unit": "%"}
        rows[name]["fail_frac"] = {"value": record["fail_frac"], "unit": "ratio"}
    print()
    print(f"seed {seed}, at least {seconds} s per workload" + (", traced" if trace else ""))
    print("\n".join(table_lines(rows, by_metric=trace)))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Single-threaded BLAS, set before the package imports numpy; child
    # processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
