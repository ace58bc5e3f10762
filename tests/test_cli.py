import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from priosynth.bench import GeneratorSpec
from priosynth.cli import main
from priosynth.config import ConfigError, _generator_to_document, load_run_config
from priosynth.graph import canonical_json, load_dag
from priosynth.kernels import CATEGORY_FEATURES
from priosynth.loop import pool_summaries, sign_test_p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def graph_file(tmp_path, diamond):
    from priosynth.graph import dump_dag

    path = tmp_path / "diamond.json"
    path.write_text(dump_dag(diamond), encoding="utf-8")
    return path


@pytest.fixture
def tiny_config(tmp_path):
    config = {
        "seed": 3,
        "train": {"family": "layered", "count": 10, "layers": 4, "width": 4, "label": "train"},
        "val": {"family": "layered", "count": 4, "layers": 4, "width": 4, "label": "val"},
        "library": {"budget": 15},
        "loop": {"iterations": 2, "batch_size": 4},
        "modes": ["full", "no_retrieval"],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestGen:
    def test_writes_graphs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code, stdout, _ = run_cli(
            capsys, "gen", "--out", str(out), "--family", "chain", "--count", "3",
            "--seed", "5", "--layers", "6",
        )
        assert code == 0
        files = sorted(p.name for p in out.glob("*.json"))
        assert files == ["chain-0000.json", "chain-0001.json", "chain-0002.json", "manifest.json"]
        dag = load_dag((out / "chain-0000.json").read_text(encoding="utf-8"))
        assert len(dag) == 6
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 5
        assert manifest["config"]["seed"] == 5
        assert "timestamp" not in canonical_json(manifest)

    def test_reruns_identical_bytes(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code, *_ = run_cli(
                capsys, "gen", "--out", str(out), "--family", "layered", "--count", "4", "--seed", "7",
            )
            assert code == 0
        for name in sorted(p.name for p in out_a.glob("*.json")):
            if name == "manifest.json":
                continue  # embeds the output dir path
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_types_argument(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x"), "--types", "alu")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("types", ["alu=-1,mem=3,mul=0", "alu=nan,mem=1", "alu=inf", "alu=0,mem=0"])
    def test_bad_type_weights_exit_3_and_write_nothing(self, types, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "gen", "--out", str(out), "--count", "3", "--types", types)
        assert code == 3
        assert "type_weights must be finite and nonnegative with a positive total" in err
        assert not out.exists()

    def test_defaults_are_the_generator_defaults(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, *_ = run_cli(capsys, "gen", "--out", str(out), "--count", "1")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == _generator_to_document(GeneratorSpec(label="layered"), 1)

    @pytest.mark.parametrize(
        ("flag", "pairs", "name"),
        [("--capacities", "alu=2,alu=3,mem=1,mul=1", "alu"), ("--types", "alu=1,mem=3, mem=1", "mem")],
    )
    def test_repeated_name_exits_3_and_writes_nothing(self, flag, pairs, name, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "gen", "--out", str(out), "--count", "1", flag, pairs)
        assert code == 3
        assert f"{flag} names {name!r} more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("capacities", "message"),
        [("alu=0,mem=1,mul=1", "capacity for 'alu' must be a positive integer, got 0"),
         ("alu=2,mem=1", "op type 'mul' has positive weight but no capacity")],
    )
    def test_bad_capacities_exit_3_and_write_nothing(self, capacities, message, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "gen", "--out", str(out), "--count", "1", "--capacities", capacities)
        assert code == 3
        assert message in err
        assert not out.exists()

    def test_zero_weight_type_needs_no_capacity(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, *_ = run_cli(
            capsys, "gen", "--out", str(out), "--count", "2", "--types", "alu=3,mem=1,mul=0", "--capacities", "alu=2,mem=1"
        )
        assert code == 0
        assert len(list(out.glob("layered-*.json"))) == 2

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_count_below_one_exits_3_and_writes_nothing(self, count, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = run_cli(capsys, "gen", "--out", str(out), "--count", count)
        assert code == 3
        assert f"count must be a positive integer, got {count}" in err
        assert not out.exists()


class TestStats:
    def test_prints_feature_tables(self, graph_file, capsys):
        code, stdout, _ = run_cli(capsys, "stats", str(graph_file))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["cp_length"] == 7
        assert doc["per_node"]["0"]["crit"] == 7
        assert doc["per_node"]["0"]["reconv"] == 1

    def test_malformed_graph_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nodes\": []}", encoding="utf-8")
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 3
        assert "error" in err

    def test_cyclic_graph_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "cycle.json"
        bad.write_text(
            json.dumps(
                {
                    "nodes": [
                        {"id": 0, "type": "a", "duration": 1},
                        {"id": 1, "type": "a", "duration": 1},
                    ],
                    "edges": [[0, 1], [1, 0]],
                    "capacities": {"a": 1},
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 3


    def test_mixed_type_node_ids_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "mixed.json"
        bad.write_text(
            '{"nodes": [{"id": 0, "type": "a", "duration": 1}, {"id": "a", "type": "a", "duration": 1}],'
            ' "edges": [], "capacities": {"a": 1}}',
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 3
        assert "node id 'a' is not an integer" in err

    def test_non_integer_edge_endpoint_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "coerced.json"
        bad.write_text(
            '{"nodes": [{"id": 0, "type": "a", "duration": 1}, {"id": 1, "type": "a", "duration": 1}],'
            ' "edges": [[0.0, true]], "capacities": {"a": 1}}',
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 3
        assert "edge (0.0, True)" in err

    def test_empty_op_type_capacity_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "empty-type.json"
        bad.write_text(
            '{"nodes": [{"id": 0, "type": "a", "duration": 1}], "edges": [], "capacities": {"": 1, "a": 1}}',
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "stats", str(bad))
        assert code == 3
        assert "op type '' must be a non-empty string" in err


class TestKernelsAndRetrieve:
    def test_build_then_retrieve(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "10", "--seed", "2")
        lib = tmp_path / "lib.json"
        code, stdout, _ = run_cli(
            capsys, "kernels", "build", "--train", str(suite), "--out", str(lib), "--budget", "12",
        )
        assert code == 0
        assert "kernels" in stdout
        doc = json.loads(lib.read_text(encoding="utf-8"))
        assert doc["layout"] == "v3"
        assert 0 < len(doc["kernels"]) <= 12
        normalizer_path = tmp_path / "lib.normalizer.json"
        assert normalizer_path.exists()

        code, stdout, _ = run_cli(
            capsys, "retrieve", "--library", str(lib), "--normalizer", str(normalizer_path),
            "--graph", str(suite / "layered-0003.json"), "-m", "3",
        )
        assert code == 0
        matches = json.loads(stdout)["matches"]
        assert len(matches) == 3
        sims = [m["similarity"] for m in matches]
        assert sims == sorted(sims, reverse=True)

    @pytest.mark.parametrize(
        ("library", "normalizer", "message"),
        [
            ("empty", "normalizer", "kernel library must be a JSON object"),
            ("normalizer", "normalizer", "kernel library has no 'kernels' array"),
            ("library", "empty", "normalizer must be a JSON object"),
            ("library", "library", "normalizer has no 'mean' or no 'std' array"),
            ("bare_entry", "normalizer", "kernel library entry 0: 'category' must be a string"),
            ("text_signature", "normalizer", "entry 0 (x): 'signature' must be a list of finite numbers"),
            ("float_support", "normalizer", "kernel library entry 0 (x): 'support' must be an integer"),
            ("unknown_category", "normalizer", "kernel library entry 0 (x): 'category' must be one of"),
            ("negative_support", "normalizer", "kernel library entry 0 (x): 'support' must be at least 1, got -5"),
            ("zero_support", "normalizer", "kernel library entry 0 (x): 'support' must be at least 1, got 0"),
            ("library", "text_mean", "normalizer 'mean' must be a list of finite numbers"),
            ("library", "bool_std", "normalizer 'std' must be a list of finite numbers"),
            ("stray_top_key", "normalizer", "kernel library: unknown key 'kernel'"),
            ("stray_entry_key", "normalizer", "kernel library entry 0: unknown key 'signatrue'"),
            ("stray_template_key", "normalizer", "kernel library entry 0: unknown key 'template'"),
            ("library", "stray_normalizer_key", "normalizer: unknown key 'vocabulary'"),
            ("v1_library", "normalizer", "unsupported kernel library layout 'v1'"),
            ("v2_library", "normalizer", "unsupported kernel library layout 'v2'"),
            ("repeated_id", "normalizer", "kernel library entry 1 (x): id 'x' repeats entry 0"),
            ("ragged_signatures", "normalizer", "entry 1 (y): 'signature' has 2 entries but entry 0 has 1"),
            ("library", "short_normalizer", "but the normalizer has 1"),
            ("library", "no_vocab_normalizer", "normalizer has no 'vocab' array"),
            ("library", "negative_std_normalizer", "normalizer 'std' entry 0 is negative"),
            ("library", "long_vocab_normalizer", "needs 27 'mean' and 'std' entries but the normalizer has 25"),
            ("library", "other_vocab_normalizer", "kernel library signatures have 25 entries but the normalizer has 21"),
            ("library", "repeated_vocab_normalizer", "normalizer 'vocab' repeats an op type: ['alu', 'alu', 'mem']"),
            ("library", "unsorted_vocab_normalizer", "normalizer 'vocab' is not in sorted order: ['mul', 'alu', 'mem']"),
        ],
    )
    def test_malformed_library_or_normalizer_exits_3(self, library, normalizer, message, graph_file, tmp_path, capsys):
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "4", "--seed", "2")
        files = {
            "library": tmp_path / "lib.json",
            "normalizer": tmp_path / "lib.normalizer.json",
        }
        run_cli(capsys, "kernels", "build", "--train", str(suite), "--out", str(files["library"]), "--budget", "4")
        entry = {"id": "x", "category": "hub", "signature": [0.0], "support": 1}
        template = {"family": "fanout_aware", "defaults": {"crit": 1, "fanout": 1}}
        # The built library as the v2 layout wrote it, a template of default
        # magnitudes per kernel under a family named per category, and as the
        # v1 layout wrote it, which added a search range per template feature.
        families = {"hub": "fanout_aware", "reconvergent": "reconvergent_A", "chain": "deep_chain_B"}
        libraries = {}
        built_normalizer = json.loads(files["normalizer"].read_text(encoding="utf-8"))
        for layout in ("v1", "v2"):
            libraries[layout] = json.loads(files["library"].read_text(encoding="utf-8"))
            libraries[layout]["layout"] = layout
            for kern in libraries[layout]["kernels"]:
                features = CATEGORY_FEATURES[kern["category"]]
                kern["template"] = {"family": families[kern["category"]], "defaults": dict.fromkeys(features, 1.0)}
                if layout == "v1":
                    kern["template"]["ranges"] = dict.fromkeys(features, [0, 4])
        written = {
            "empty": [],
            "bare_entry": {"layout": "v3", "kernels": [{"id": "x"}]},
            "text_signature": {"layout": "v3", "kernels": [{**entry, "signature": "12"}]},
            "float_support": {"layout": "v3", "kernels": [{**entry, "support": 1.5}]},
            "unknown_category": {"layout": "v3", "kernels": [{**entry, "category": "fanout_aware"}]},
            "negative_support": {"layout": "v3", "kernels": [{**entry, "support": -5}]},
            "zero_support": {"layout": "v3", "kernels": [{**entry, "support": 0}]},
            "text_mean": {"layout": "v1", "mean": "12", "std": "34"},
            "bool_std": {"layout": "v1", "mean": [0.0], "std": [True]},
            "stray_top_key": {"layout": "v3", "kernels": [], "kernel": []},
            "stray_entry_key": {"layout": "v3", "kernels": [{**entry, "signatrue": [0.0]}]},
            "stray_template_key": {"layout": "v3", "kernels": [{**entry, "template": template}]},
            "stray_normalizer_key": {"layout": "v1", "mean": [0.0], "std": [1.0], "vocabulary": ["a"]},
            "v1_library": libraries["v1"],
            "v2_library": libraries["v2"],
            "repeated_id": {"layout": "v3", "kernels": [entry, entry]},
            "ragged_signatures": {"layout": "v3", "kernels": [entry, {**entry, "id": "y", "signature": [0.0, 1.0]}]},
            "short_normalizer": {"layout": "v1", "mean": [0.0], "std": [1.0], "vocab": ["a"]},
            # The built normalizer, mean and std of the library's length, without its vocabulary.
            "no_vocab_normalizer": {key: value for key, value in built_normalizer.items() if key != "vocab"},
            # The built normalizer with every std sign flipped.
            "negative_std_normalizer": {**built_normalizer, "std": [-x for x in built_normalizer["std"]]},
            # The built normalizer (3 op types, 25 entries) naming a fourth type.
            "long_vocab_normalizer": {**built_normalizer, "vocab": [*built_normalizer["vocab"], "zzz"]},
            # A well-formed one-type normalizer that the library was not built with.
            "other_vocab_normalizer": {"layout": "v1", "mean": [0.0] * 21, "std": [1.0] * 21, "vocab": ["a"]},
            # The built normalizer naming one of its op types twice, and its
            # op types permuted out of sorted order.
            "repeated_vocab_normalizer": {**built_normalizer, "vocab": ["alu", "alu", "mem"]},
            "unsorted_vocab_normalizer": {**built_normalizer, "vocab": ["mul", "alu", "mem"]},
        }
        for name, document in written.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(document), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "retrieve", "--library", str(files[library]), "--normalizer", str(files[normalizer]),
            "--graph", str(graph_file),
        )
        assert code == 3
        assert message in err

    def test_capacity_outside_the_vocabulary_exits_3(self, tmp_path, capsys):
        # An extra capacity that no node uses still names a type the
        # normalizer's vocabulary lacks.
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "4", "--seed", "2")
        lib = tmp_path / "lib.json"
        run_cli(capsys, "kernels", "build", "--train", str(suite), "--out", str(lib), "--budget", "4")
        graph = json.loads((suite / "layered-0001.json").read_text(encoding="utf-8"))
        graph["capacities"]["dsp"] = 1
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps(graph), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "retrieve", "--library", str(lib), "--normalizer", str(tmp_path / "lib.normalizer.json"),
            "--graph", str(extra),
        )
        assert code == 3
        assert "op type 'dsp' is not in the embedding vocabulary" in err

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [
            ("--theta", "nan", "theta must be finite, got nan"),
            ("--theta", "inf", "theta must be finite, got inf"),
            ("--k", "-1", "k must be nonnegative, got -1"),
            ("--budget", "-1", "budget must be nonnegative, got -1"),
            ("--chain-min-len", "0", "chain_min_len must be positive, got 0"),
            ("--chain-min-len", "-3", "chain_min_len must be positive, got -3"),
        ],
    )
    def test_bad_library_parameter_exits_3(self, flag, value, message, tmp_path, capsys):
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "2", "--seed", "2")
        lib = tmp_path / "lib.json"
        code, _, err = run_cli(capsys, "kernels", "build", "--train", str(suite), "--out", str(lib), flag, value)
        assert code == 3
        assert message in err
        assert not lib.exists()

    def test_bad_library_parameter_is_checked_before_the_graphs_are_read(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "kernels", "build", "--train", str(tmp_path / "missing"), "--out", str(tmp_path / "lib.json"),
            "--budget", "-1",
        )
        assert code == 3
        assert "budget must be nonnegative, got -1" in err

    def test_build_deterministic(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "8", "--seed", "2")
        lib_a, lib_b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "kernels", "build", "--train", str(suite), "--out", str(lib_a))
        run_cli(capsys, "kernels", "build", "--train", str(suite), "--out", str(lib_b))
        assert lib_a.read_bytes() == lib_b.read_bytes()


class TestSchedule:
    def test_inline_heuristic(self, graph_file, capsys):
        code, stdout, _ = run_cli(
            capsys, "schedule", "--graph", str(graph_file), "--heuristic", "1*crit",
            "--zero-runtime", "--verify",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["feasible"] is True
        assert doc["makespan"] == 7
        assert doc["runtime_ms"] == 0.0
        assert doc["starts"] == {"0": 0, "1": 2, "2": 2, "3": 5}

    def test_inline_wins_over_file(self, graph_file, tmp_path, capsys):
        heuristic = tmp_path / "h.txt"
        heuristic.write_text("-1*crit\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "schedule", "--graph", str(graph_file),
            "--heuristic", "1*crit", "--heuristic-file", str(heuristic), "--zero-runtime",
        )
        assert code == 0
        assert json.loads(stdout)["makespan"] == 7

    def test_heuristic_file_alone(self, graph_file, tmp_path, capsys):
        heuristic = tmp_path / "h.txt"
        heuristic.write_text("# comment\n1*crit\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "schedule", "--graph", str(graph_file), "--heuristic-file", str(heuristic),
            "--zero-runtime",
        )
        assert code == 0

    def test_missing_heuristic_exits_3(self, graph_file, capsys):
        code, _, err = run_cli(capsys, "schedule", "--graph", str(graph_file))
        assert code == 3

    def test_bad_expression_exits_3(self, graph_file, capsys):
        code, _, err = run_cli(
            capsys, "schedule", "--graph", str(graph_file), "--heuristic", "1*bogus",
        )
        assert code == 3

    def test_out_file(self, graph_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code, stdout, _ = run_cli(
            capsys, "schedule", "--graph", str(graph_file), "--heuristic", "1*crit",
            "--out", str(out), "--zero-runtime",
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["makespan"] == 7


class TestSynthesize:
    def test_writes_artifacts(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(capsys, "synthesize", "--config", str(tiny_config), "--out", str(out))
        assert code == 0
        assert "best:" in stdout
        history = json.loads((out / "history.json").read_text(encoding="utf-8"))
        assert len(history["records"]) == 2
        assert (out / "best.txt").exists()
        assert (out / "library.json").exists()
        assert (out / "normalizer.json").exists()
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "synthesize"
        assert str(tiny_config) in manifest["inputs"]

    def test_byte_identical_reruns(self, tiny_config, tmp_path, capsys):
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        for out in (out_a, out_b):
            code, *_ = run_cli(capsys, "synthesize", "--config", str(tiny_config), "--out", str(out))
            assert code == 0
        for name in ("history.json", "best.txt", "library.json", "normalizer.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_config_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"modes\": []}", encoding="utf-8")
        code, _, err = run_cli(capsys, "synthesize", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 3

    def test_mistyped_config_value_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"layers": 2.5}}), encoding="utf-8")
        code, _, err = run_cli(capsys, "synthesize", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 3
        with pytest.raises(ConfigError) as raised:
            load_run_config(str(bad))
        assert str(raised.value) in err

    def test_provider_failure_exits_4(self, tmp_path, capsys):
        config = {
            "seed": 3,
            "train": {"family": "layered", "count": 6, "label": "train"},
            "val": {"family": "layered", "count": 3, "label": "val"},
            "loop": {
                "iterations": 1,
                "batch_size": 4,
                "fallback_on_error": False,
                "provider": {"kind": "scripted", "replies": []},
            },
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "synthesize", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 4
        assert "provider" in err


class TestAblate:
    FILES = ("ablation.json", "library.json", "normalizer.json", "summary.json")

    def test_writes_report(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "ab"
        code, stdout, _ = run_cli(capsys, "ablate", "--config", str(tiny_config), "--out", str(out))
        assert code == 0
        report = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        assert set(report["modes"]) == {"full", "no_retrieval"}
        assert "full" in stdout and "no_retrieval" in stdout

    def test_writes_the_four_files_and_the_summary(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "ab"
        assert run_cli(capsys, "ablate", "--config", str(tiny_config), "--out", str(out))[0] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([*self.FILES, "manifest.json"])
        summary = (out / "summary.json").read_text(encoding="utf-8")
        assert summary == canonical_json(json.loads(summary))
        modes = json.loads(summary)["modes"]
        assert set(modes) == {"full", "no_retrieval"}
        assert modes["no_retrieval"]["paired"] == {}
        counts = modes["full"]["paired"]["no_retrieval"]
        assert counts["better"] + counts["worse"] + counts["tied"] == 4
        assert counts["p"] == sign_test_p(counts["better"], counts["worse"])

    @pytest.mark.parametrize(
        ("better", "worse", "p"),
        [(14, 9, 0.4048728942871094), (9, 14, 0.4048728942871094), (0, 0, 1.0), (1, 0, 1.0), (6, 0, 0.03125)],
    )
    def test_sign_test_p(self, better, worse, p):
        assert sign_test_p(better, worse) == pytest.approx(p, rel=1e-12)

    def test_pooled_counts_sum_over_seeds(self):
        def summary(seed, better, worse, tied):
            counts = {"better": better, "worse": worse, "tied": tied}
            return {"seed": seed, "modes": {"full": {"paired": {"no_retrieval": counts}}}}

        pooled = pool_summaries([summary(0, 14, 9, 27), summary(1, 2, 5, 43), summary(2, 0, 0, 50)])
        counts = {"better": 16, "worse": 14, "tied": 120, "p": pytest.approx(0.8555, abs=1e-4)}
        assert pooled == {"seeds": [0, 1, 2], "paired": {"full": {"no_retrieval": counts}}}

    def test_one_seed_writes_what_the_config_seed_writes(self, tiny_config, tmp_path, capsys):
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        assert run_cli(capsys, "ablate", "--config", str(tiny_config), "--out", str(plain))[0] == 0
        assert run_cli(capsys, "ablate", "--config", str(tiny_config), "--out", str(seeded), "--seeds", "3")[0] == 0
        for name in self.FILES:
            assert (seeded / name).read_bytes() == (plain / name).read_bytes()

    def test_several_seeds_write_one_directory_each_and_pool_them(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "seeds"
        code, stdout, _ = run_cli(capsys, "ablate", "--config", str(tiny_config), "--out", str(out), "--seeds", "3,4")
        assert code == 0
        assert "pooled over seeds 3, 4" in stdout
        assert sorted(p.name for p in out.iterdir()) == ["seed-3", "seed-4", "summary.json"]
        config = json.loads(tiny_config.read_text(encoding="utf-8"))
        totals = {"better": 0, "worse": 0, "tied": 0}
        for seed in (3, 4):
            alone = tmp_path / f"alone-{seed}"
            path = tmp_path / f"run-{seed}.json"
            path.write_text(json.dumps({**config, "seed": seed}), encoding="utf-8")
            assert run_cli(capsys, "ablate", "--config", str(path), "--out", str(alone))[0] == 0
            for name in self.FILES:
                assert (out / f"seed-{seed}" / name).read_bytes() == (alone / name).read_bytes()
            counts = json.loads((alone / "summary.json").read_text(encoding="utf-8"))["modes"]["full"]["paired"]
            for key in totals:
                totals[key] += counts["no_retrieval"][key]
        pooled = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert pooled["seeds"] == [3, 4]
        assert pooled["paired"]["full"]["no_retrieval"] == {**totals, "p": sign_test_p(totals["better"], totals["worse"])}

    @pytest.mark.parametrize(("seeds", "repeated"), [("0,0", 0), ("3,1,2,1", 1)])
    def test_repeated_seed_is_refused(self, tiny_config, tmp_path, capsys, seeds, repeated):
        out = tmp_path / "desk"
        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "--config", str(tiny_config), "--out", str(out), "--seeds", seeds])
        assert excinfo.value.code == 2
        assert f"seed {repeated} is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_that_are_not_integers_exit_2(self, tiny_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "--config", str(tiny_config), "--out", str(tmp_path / "ab"), "--seeds", "1,x"])
        assert excinfo.value.code == 2
        assert "'1,x' is not a comma-separated list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["train", "val"])
    def test_section_seed_under_seeds_exits_3(self, section, tiny_config, tmp_path, capsys):
        config = json.loads(tiny_config.read_text(encoding="utf-8"))
        config[section]["seed"] = 7
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "ablate", "--config", str(path), "--out", str(tmp_path / "ab"), "--seeds", "0,1")
        assert code == 3
        assert f"{section} sets its own seed" in err
        assert not (tmp_path / "ab").exists()

    @pytest.mark.parametrize(
        ("section", "message"),
        [
            ({"library": {"budget": -5}}, "budget must be nonnegative, got -5"),
            ({"loop": {"top_m": -1}}, "top_m must be nonnegative"),
            ({"modes": []}, "modes must be a non-empty array"),
            ({"modes": "full"}, "modes must be a non-empty array"),
            ({"modes": ["full", "no_retrieval", "full"]}, "ablation mode 'full' is listed twice"),
            ({"modes": ["full", "nope"]}, "unknown ablation mode 'nope'"),
        ],
    )
    def test_bad_run_config_value_exits_3(self, section, message, tmp_path, capsys):
        config = {"seed": 3, "train": {"count": 4, "label": "train"}, "val": {"count": 2, "label": "val"}, **section}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run_cli(capsys, "ablate", "--config", str(path), "--out", str(tmp_path / "ab"))
        assert code == 3
        assert message in err
        assert not (tmp_path / "ab").exists()


class TestReport:
    def test_text_and_csv(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "5", "--seed", "1")
        code, stdout, _ = run_cli(
            capsys, "report", "--graphs", str(suite), "--zero-runtime", "--suite-name", "demo",
        )
        assert code == 0
        assert "baseline_level" in stdout
        code, stdout, _ = run_cli(
            capsys, "report", "--graphs", str(suite), "--zero-runtime", "--format", "csv",
        )
        assert code == 0
        assert stdout.startswith("suite,heuristic,")

    def test_output_directory(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        run_cli(capsys, "gen", "--out", str(suite), "--count", "5", "--seed", "1")
        out = tmp_path / "rep"
        code, *_ = run_cli(capsys, "report", "--graphs", str(suite), "--out", str(out), "--zero-runtime")
        assert code == 0
        assert (out / "campaign.json").exists()
        assert (out / "report.txt").exists()
        assert (out / "report.csv").exists()


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "priosynth", "--help"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: priosynth")
