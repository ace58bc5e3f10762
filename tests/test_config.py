import re

import pytest

from priosynth.config import ConfigError, default_run_config_document, load_run_config, run_config_to_document
from priosynth.loop import LoopConfig


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


def test_int_widens_to_float():
    theta = load_run_config({"library": {"theta": 1}}).library.theta
    assert theta == 1.0 and type(theta) is float


def test_unknown_keys_are_ignored():
    cfg = load_run_config({"extra": 1, "train": {"widht": 9}, "loop": {"jobs": 1, "iterations": 2}})
    assert cfg.train_spec.width == 4
    assert cfg.loop.iterations == 2


def test_missing_loop_section_reads_as_dataclass_defaults():
    assert load_run_config({"val": {"label": "v"}}).loop == LoopConfig()


def _generator_keys_and_scripted_provider() -> dict:
    doc = default_run_config_document(seed=4)
    doc["train"].update(types={"alu": 2, "mem": 1.5}, durations=[2, 5], capacities={"alu": 3, "mem": 2})
    doc["loop"]["provider"] = {"kind": "scripted", "replies": ["1*crit", "2*crit - 1*level"]}
    return doc


@pytest.mark.parametrize("make_doc", [default_run_config_document, _generator_keys_and_scripted_provider])
def test_echo_reads_back_to_the_same_config(make_doc):
    cfg = load_run_config(make_doc())
    assert load_run_config(run_config_to_document(cfg)) == cfg
