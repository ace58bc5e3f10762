import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from priosynth.config import (
    ConfigError,
    default_run_config_document,
    load_run_config,
    run_config_to_document,
)
from priosynth.bench import GeneratorSpec
from priosynth.graph import canonical_json
from priosynth.kernels import LibraryParams
from priosynth.loop import ABLATIONS, LoopConfig


def nested(path: str, value) -> dict:
    """``{"a": {"b": value}}`` for the path ``"a.b"``."""
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


@pytest.mark.parametrize(
    ("path", "value"),
    [
        ("loop.fallback_on_error", "false"),
        ("loop.iterations", 2.9),
        ("loop.iterations", "3"),
        ("loop.iterations", True),
        ("library.theta", "0.9"),
        ("library.budget", 12.7),
        ("train.layers", 2.5),
        ("train.width", "4"),
        ("train.durations", [1, 2.5]),
        ("loop.provider.replies", "abc"),
        ("loop.provider", "fallback"),
    ],
)
def test_mistyped_value_is_rejected_by_name(path, value):
    # The message is the dataclass's, naming the field a document key fills.
    section, key = path.rsplit(".", 1)
    field = {"durations": "duration_range"}.get(key, key)
    with pytest.raises(ConfigError, match=rf"^bad {re.escape(section)}: {field}(\[\d+\])? must be of type "):
        load_run_config(nested(path, value))


@pytest.mark.parametrize("types", [{"alu": -1, "mem": 3}, {"alu": 0, "mem": 0}, {"alu": float("inf")}])
def test_bad_type_weights_are_rejected(types):
    with pytest.raises(ConfigError, match=r"^bad train: type_weights must be finite and nonnegative"):
        load_run_config({"train": {"types": types}})


@pytest.mark.parametrize(
    ("capacities", "message"),
    [
        ({"alu": 0, "mem": 1, "mul": 1}, "capacity for 'alu' must be a positive integer, got 0"),
        ({"alu": -2, "mem": 1, "mul": 1}, "capacity for 'alu' must be a positive integer, got -2"),
        ({"alu": 2, "mem": 1}, "op type 'mul' has positive weight but no capacity"),
    ],
)
def test_bad_capacities_are_rejected_at_load(capacities, message):
    with pytest.raises(ConfigError, match=rf"^bad train: {re.escape(message)}$"):
        load_run_config({"train": {"capacities": capacities}})


def test_zero_weight_type_needs_no_capacity():
    cfg = load_run_config({"train": {"types": {"alu": 3, "mem": 1, "mul": 0}, "capacities": {"alu": 2, "mem": 1}}})
    assert dict(cfg.train_spec.capacities) == {"alu": 2, "mem": 1}


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("budget", -1, "budget must be nonnegative, got -1"),
        ("k", -1, "k must be nonnegative, got -1"),
        ("theta", math.nan, "theta must be finite, got nan"),
        ("chain_min_len", 0, "chain_min_len must be positive, got 0"),
    ],
)
def test_bad_library_value_is_rejected_at_load(field, value, message):
    with pytest.raises(ConfigError, match=rf"^bad library: {re.escape(message)}$"):
        load_run_config({"library": {field: value}})


def test_relative_config_path_starting_with_a_brace_is_read_as_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{cfg}.json").write_text(json.dumps({"seed": 3, "library": {"budget": 7}}), encoding="utf-8")
    for given in ("{cfg}.json", Path("{cfg}.json")):
        cfg = load_run_config(given)
        assert (cfg.seed, cfg.library.budget) == (3, 7)


def test_int_widens_to_float():
    theta = load_run_config({"library": {"theta": 1}}).library.theta
    assert theta == 1.0 and type(theta) is float


def test_an_int_float_field_echoes_as_the_reader_widens_it():
    types = {"alu": 3, "mem": 1, "mul": 1}
    doc = {"train": {"edge_prob": 1, "types": types}, "library": {"theta": 1}}
    read = load_run_config(doc)
    built = replace(
        read,
        train_spec=GeneratorSpec(edge_prob=1, type_weights=tuple(types.items()), label="train"),
        library=LibraryParams(theta=1),
    )
    assert type(built.train_spec.edge_prob) is float
    assert {type(weight) for _, weight in built.train_spec.type_weights} == {float}
    assert type(built.library.theta) is float
    assert canonical_json(run_config_to_document(built)) == canonical_json(run_config_to_document(read))


def test_unknown_keys_are_ignored():
    loop = {"jobs": 1, "infeasibility_penalty": 1.0, "iterations": 2}
    cfg = load_run_config({"extra": 1, "train": {"widht": 9, "duration_range": [2, 3]}, "loop": loop})
    assert cfg.train_spec.width == 4
    assert cfg.train_spec.duration_range == (1, 6)  # the document spells it "durations"
    assert cfg.loop.iterations == 2


def test_missing_loop_section_reads_as_dataclass_defaults():
    assert load_run_config({"val": {"label": "v"}}).loop == LoopConfig()


@pytest.mark.parametrize("seed", [0, 7])
def test_default_document_takes_the_declared_defaults(seed):
    cfg = load_run_config(default_run_config_document(seed))
    assert cfg.library == LibraryParams()
    assert cfg.loop == LoopConfig(seed=seed)
    assert cfg.modes == ABLATIONS
    assert (cfg.train_count, cfg.val_count) == (200, 50)


@pytest.mark.parametrize("seed", [0, 3])
def test_readme_config_is_the_desk_config(seed):
    """The README's example config, run with ``priosynth ablate --seeds``,
    reads as the desk config whose files the digest record pins."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Run configuration\n", 1)[1]
    document = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert load_run_config({**document, "seed": seed}) == load_run_config(default_run_config_document(seed))


def _generator_keys_and_scripted_provider() -> dict:
    doc = default_run_config_document(seed=4)
    doc["train"].update(types={"alu": 2, "mem": 1.5}, durations=[2, 5], capacities={"alu": 3, "mem": 2})
    doc["loop"]["provider"] = {"kind": "scripted", "replies": ["1*crit", "2*crit - 1*level"]}
    return doc


@pytest.mark.parametrize("make_doc", [default_run_config_document, _generator_keys_and_scripted_provider])
def test_echo_reads_back_to_the_same_config(make_doc):
    cfg = load_run_config(make_doc())
    assert load_run_config(run_config_to_document(cfg)) == cfg
