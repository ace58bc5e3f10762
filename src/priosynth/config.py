"""Run-configuration documents for synthesis and ablation runs.

A run config is one JSON object holding the corpus recipes, kernel-library
parameters, and loop hyperparameters.  A single top-level seed feeds the
generators and the loop unless a section overrides it.  Provider credentials
are never part of the document; an ``auth_env`` name points at the
environment instead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Mapping, get_type_hints

from .bench import GeneratorSpec, generate_suite
from .embedding import Normalizer, build_vocab
from .graph import Dag
from .kernels import Kernel, LibraryParams, build_kernel_library
from .loop import ABLATIONS, LoopConfig, check_modes, loop_config_to_document


class ConfigError(ValueError):
    """A run-config document is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    seed: int
    train_spec: GeneratorSpec
    train_count: int
    val_spec: GeneratorSpec
    val_count: int
    library: LibraryParams
    loop: LoopConfig
    modes: tuple[str, ...]


# Resolving a class's string annotations takes ~0.1 ms, so it is done once per class.
_field_types = cache(get_type_hints)


def _check(kind, value, name: str):
    """``value`` if it has type ``kind``, without coercion: only an int widens
    to a float, and a bool is neither an int nor a float."""
    if is_dataclass(kind):
        return _read(kind, value, name)
    if kind is float and type(value) is int:
        return float(value)
    if kind == tuple[str, ...] and isinstance(value, (list, tuple)) and all(type(v) is str for v in value):
        return tuple(value)
    if type(value) is kind or (kind == str | None and (value is None or type(value) is str)):
        return value
    kind_name = kind.__name__ if kind in (int, float, bool, str) else kind
    raise ConfigError(f"{name} must be of type {kind_name}, got {json.dumps(value, default=repr)}")


def _read(cls, doc, what: str, **defaults):
    """Build the dataclass ``cls`` from the JSON object ``doc``.

    A field missing from ``doc`` takes its value from ``defaults``, else its
    dataclass default.  Keys that name no field are ignored."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be an object")
    hints = _field_types(cls)
    kwargs = dict(defaults)
    for f in fields(cls):
        if f.name in doc:
            kwargs[f.name] = _check(hints[f.name], doc[f.name], f"{what}.{f.name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _pairs(doc, name: str, kind) -> tuple:
    if not isinstance(doc, Mapping) or not doc:
        raise ConfigError(f"{name} must be a non-empty object")
    return tuple(sorted((str(key), _check(kind, value, f"{name}.{key}")) for key, value in doc.items()))


def _generator_from_document(doc, seed: int, label: str) -> tuple[GeneratorSpec, int]:
    """The document spells three fields differently from ``GeneratorSpec``:
    ``types`` and ``capacities`` are objects, ``durations`` is [lo, hi]."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{label} must be an object")
    data = dict(doc)
    count = _check(int, data.pop("count", 50), f"{label}.count")
    if count < 1:
        raise ConfigError(f"{label}.count must be a positive integer")
    renamed: dict = {}
    if "types" in data:
        renamed["type_weights"] = _pairs(data.pop("types"), f"{label}.types", float)
    if "capacities" in data:
        renamed["capacities"] = _pairs(data.pop("capacities"), f"{label}.capacities", int)
    if "durations" in data:
        durations = data.pop("durations")
        if not isinstance(durations, (list, tuple)) or len(durations) != 2:
            raise ConfigError(f"{label}.durations must be [lo, hi]")
        renamed["duration_range"] = tuple(_check(int, d, f"{label}.durations") for d in durations)
    return _read(GeneratorSpec, data, label, seed=seed, label=label, **renamed), count


def load_run_config(document) -> RunConfig:
    """Parse a run config given as a mapping or as the path (``str`` or
    ``Path``) of a JSON file.  Every section is checked here, the library and
    loop parameters included, so a bad config fails before any graph is built."""
    if isinstance(document, (str, Path)):
        try:
            document = json.loads(Path(document).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {document}: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    if not isinstance(document, Mapping):
        raise ConfigError("run config must be a JSON object")

    seed = _check(int, document.get("seed", 0), "seed")
    train_spec, train_count = _generator_from_document(document.get("train", {}), seed, "train")
    val_spec, val_count = _generator_from_document(document.get("val", {}), seed, "val")
    if train_spec.label == val_spec.label and train_spec.seed == val_spec.seed:
        raise ConfigError("train and val sections must differ in label or seed")
    modes_doc = document.get("modes", list(ABLATIONS))
    if not isinstance(modes_doc, list) or not modes_doc:
        raise ConfigError("modes must be a non-empty array")
    try:
        check_modes(modes_doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        seed=seed,
        train_spec=train_spec,
        train_count=train_count,
        val_spec=val_spec,
        val_count=val_count,
        library=_read(LibraryParams, document.get("library", {}), "library"),
        loop=_read(LoopConfig, document.get("loop", {}), "loop", seed=seed),
        modes=tuple(modes_doc),
    )


def default_run_config_document(seed: int = 0) -> dict:
    """Desk-scale defaults: 200 training and 50 validation layered graphs.
    The library, loop and modes take their defaults from ``LibraryParams``,
    ``LoopConfig`` and ``ABLATIONS``; ``loop`` is present but empty so that
    callers can set loop fields in place."""
    return {
        "seed": seed,
        "train": {"family": "layered", "count": 200, "layers": 5, "width": 5, "label": "train"},
        "val": {"family": "layered", "count": 50, "layers": 5, "width": 5, "label": "val"},
        "loop": {},
    }


def _generator_to_document(spec: GeneratorSpec, count: int) -> dict:
    return {
        "family": spec.family,
        "count": count,
        "layers": spec.layers,
        "width": spec.width,
        "edge_prob": spec.edge_prob,
        "types": {name: weight for name, weight in spec.type_weights},
        "durations": list(spec.duration_range),
        "capacities": {name: cap for name, cap in spec.capacities},
        "seed": spec.seed,
        "label": spec.label,
    }


def run_config_to_document(cfg: RunConfig) -> dict:
    """Normalized echo of a run config, used in manifests and histories."""
    return {
        "seed": cfg.seed,
        "train": _generator_to_document(cfg.train_spec, cfg.train_count),
        "val": _generator_to_document(cfg.val_spec, cfg.val_count),
        "library": asdict(cfg.library),
        "loop": loop_config_to_document(cfg.loop),
        "modes": list(cfg.modes),
    }


def build_corpora(cfg: RunConfig) -> tuple[list, list]:
    train = generate_suite(cfg.train_spec, cfg.train_count)
    val = generate_suite(cfg.val_spec, cfg.val_count)
    return train, val


@dataclass(frozen=True)
class PreparedRun:
    """Everything a synthesis or ablation run reads besides its config."""

    train: list[Dag]
    val: list[Dag]
    vocab: tuple[str, ...]
    kernels: list[Kernel]
    normalizer: Normalizer


def prepare_run(cfg: RunConfig) -> PreparedRun:
    """Build the corpora, the shared vocabulary over train and validation
    graphs, and the kernel library mined from the training corpus."""
    train, val = build_corpora(cfg)
    vocab = build_vocab(train + val)
    kernels, normalizer = build_kernel_library(train, vocab=vocab, **asdict(cfg.library))
    return PreparedRun(train, val, vocab, kernels, normalizer)
