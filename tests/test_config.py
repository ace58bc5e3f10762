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
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be"):
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
    doc = {"library": {"theta": 1}, "loop": {"infeasibility_penalty": 1}}
    read = load_run_config(doc)
    built = replace(read, library=LibraryParams(theta=1), loop=LoopConfig(infeasibility_penalty=1))
    assert type(built.library.theta) is float and type(built.loop.infeasibility_penalty) is float
    assert canonical_json(run_config_to_document(built)) == canonical_json(run_config_to_document(read))


def test_unknown_keys_are_ignored():
    cfg = load_run_config({"extra": 1, "train": {"widht": 9}, "loop": {"jobs": 1, "iterations": 2}})
    assert cfg.train_spec.width == 4
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


def _generator_keys_and_scripted_provider() -> dict:
    doc = default_run_config_document(seed=4)
    doc["train"].update(types={"alu": 2, "mem": 1.5}, durations=[2, 5], capacities={"alu": 3, "mem": 2})
    doc["loop"]["provider"] = {"kind": "scripted", "replies": ["1*crit", "2*crit - 1*level"]}
    return doc


@pytest.mark.parametrize("make_doc", [default_run_config_document, _generator_keys_and_scripted_provider])
def test_echo_reads_back_to_the_same_config(make_doc):
    cfg = load_run_config(make_doc())
    assert load_run_config(run_config_to_document(cfg)) == cfg
