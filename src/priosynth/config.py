"""Run-configuration documents for synthesis and ablation runs.

A run config is one JSON object holding the corpus recipes, kernel-library
parameters, and loop hyperparameters.  A single top-level seed feeds the
generators and the loop unless a section overrides it.  Provider credentials
are never part of the document; an ``auth_env`` name points at the
environment instead.

The reader only maps document keys to the fields of the run-input
dataclasses (``GeneratorSpec``, ``LibraryParams``, ``LoopConfig``,
``ProviderSpec``); each checks its own values with
:func:`~priosynth.graph.check_type` when constructed, so a config and
the Python API share one type rule and one message, which the reader
prefixes with ``bad <section>:``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

from .bench import GeneratorSpec, generate_suite
from .embedding import Normalizer, build_vocab
from .graph import Dag, check_type
from .kernels import Kernel, LibraryParams, build_kernel_library
from .loop import ABLATIONS, LoopConfig, check_modes, loop_config_to_document
from .providers import ProviderSpec


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


def _int(name: str, value) -> int:
    """A document value that no dataclass field holds (the seed, a count)."""
    try:
        return check_type(name, value, int)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read(cls, doc, what: str, **defaults):
    """Build the dataclass ``cls`` from the JSON object ``doc``, whose keys
    are already the field names.

    A field missing from ``doc`` takes its value from ``defaults``, else its
    dataclass default.  Keys that name no field are ignored.  The dataclass
    checks every value; its ``ValueError`` becomes ``bad <what>: ...``."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be an object")
    kwargs = dict(defaults)
    for f in fields(cls):
        if f.name in doc:
            value = doc[f.name]
            # JSON has no tuples: an array fills a tuple field.
            kwargs[f.name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _pairs(doc, name: str) -> tuple:
    """A ``{name: value}`` object as name-sorted pairs."""
    if not isinstance(doc, Mapping) or not doc:
        raise ConfigError(f"{name} must be a non-empty object")
    return tuple(sorted(doc.items(), key=lambda item: str(item[0])))


def _generator_from_document(doc, seed: int, label: str) -> tuple[GeneratorSpec, int]:
    """The document spells three fields differently from ``GeneratorSpec``:
    ``types`` and ``capacities`` are objects, ``durations`` is [lo, hi]."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{label} must be an object")
    # One spelling per field: the field names of the renamed keys are not document keys.
    data = {key: value for key, value in doc.items() if key not in ("type_weights", "duration_range")}
    count = _int(f"{label}.count", data.pop("count", 50))
    if count < 1:
        raise ConfigError(f"{label}.count must be a positive integer")
    for key, name in (("types", "type_weights"), ("capacities", "capacities")):
        if key in data:
            data[name] = _pairs(data.pop(key), f"{label}.{key}")
    if "durations" in data:
        data["duration_range"] = data.pop("durations")
    return _read(GeneratorSpec, data, label, seed=seed, label=label), count


def _loop_from_document(doc, seed: int) -> LoopConfig:
    """The document gives the provider as an object."""
    if isinstance(doc, Mapping) and isinstance(doc.get("provider"), Mapping):
        doc = {**doc, "provider": _read(ProviderSpec, doc["provider"], "loop.provider")}
    return _read(LoopConfig, doc, "loop", seed=seed)


def read_run_config_document(path):
    """The JSON value in the run-config file ``path``, not yet checked."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None


def load_run_config(document) -> RunConfig:
    """Parse a run config given as a mapping or as the path (``str`` or
    ``Path``) of a JSON file.  Every section is checked here, the library and
    loop parameters included, so a bad config fails before any graph is built."""
    if isinstance(document, (str, Path)):
        document = read_run_config_document(document)
    if not isinstance(document, Mapping):
        raise ConfigError("run config must be a JSON object")

    seed = _int("seed", document.get("seed", 0))
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
        loop=_loop_from_document(document.get("loop", {}), seed),
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
