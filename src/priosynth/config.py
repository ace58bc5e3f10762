"""Run-configuration documents for synthesis and ablation runs.

A run config is one JSON object holding the corpus recipes, kernel-library
parameters, and loop hyperparameters.  A single top-level seed feeds the
generators and the loop unless a section overrides it.  Provider credentials
are never part of the document; an ``auth_env`` name points at the
environment instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .bench import GeneratorSpec, generate_suite
from .embedding import Normalizer, build_vocab
from .graph import Dag
from .kernels import Kernel, build_kernel_library
from .loop import ABLATIONS, LoopConfig
from .providers import load_provider_spec


class ConfigError(ValueError):
    """A run-config document is malformed or inconsistent."""


@dataclass(frozen=True)
class LibraryParams:
    k: int = 2
    theta: float = 0.95
    budget: int = 50
    chain_min_len: int = 4


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


def _as_pairs(doc, what: str, cast) -> tuple:
    if not isinstance(doc, Mapping) or not doc:
        raise ConfigError(f"{what} must be a non-empty object")
    try:
        return tuple(sorted((str(key), cast(value)) for key, value in doc.items()))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _generator_from_document(doc, seed: int, label: str) -> tuple[GeneratorSpec, int]:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{label} section must be an object")
    data = dict(doc)
    count = data.pop("count", 50)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ConfigError(f"{label}.count must be a positive integer")
    kwargs: dict = {
        "family": data.get("family", "layered"),
        "layers": data.get("layers", 4),
        "width": data.get("width", 4),
        "edge_prob": data.get("edge_prob", 0.35),
        "seed": data.get("seed", seed),
        "label": data.get("label", label),
    }
    if "types" in data:
        kwargs["type_weights"] = _as_pairs(data["types"], f"{label}.types", float)
    if "capacities" in data:
        kwargs["capacities"] = _as_pairs(data["capacities"], f"{label}.capacities", int)
    if "durations" in data:
        durations = data["durations"]
        if not isinstance(durations, (list, tuple)) or len(durations) != 2:
            raise ConfigError(f"{label}.durations must be [lo, hi]")
        kwargs["duration_range"] = (int(durations[0]), int(durations[1]))
    try:
        return GeneratorSpec(**kwargs), count
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label} generator: {exc}") from None


def _library_from_document(doc) -> LibraryParams:
    if doc is None:
        return LibraryParams()
    if not isinstance(doc, Mapping):
        raise ConfigError("library section must be an object")
    try:
        return LibraryParams(
            k=int(doc.get("k", 2)),
            theta=float(doc.get("theta", 0.95)),
            budget=int(doc.get("budget", 50)),
            chain_min_len=int(doc.get("chain_min_len", 4)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad library section: {exc}") from None


def _loop_from_document(doc, seed: int) -> LoopConfig:
    if doc is None:
        doc = {}
    if not isinstance(doc, Mapping):
        raise ConfigError("loop section must be an object")
    try:
        provider = load_provider_spec(doc.get("provider", {}))
        return LoopConfig(
            iterations=int(doc.get("iterations", 3)),
            top_m=int(doc.get("top_m", 5)),
            batch_size=int(doc.get("batch_size", 8)),
            runtime_weight=float(doc.get("runtime_weight", 0.01)),
            infeasibility_penalty=float(doc.get("infeasibility_penalty", 5000.0)),
            seed=int(doc.get("seed", seed)),
            ablation=str(doc.get("ablation", "full")),
            runtime_mode=str(doc.get("runtime_mode", "zero")),
            fallback_on_error=bool(doc.get("fallback_on_error", True)),
            provider=provider,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad loop section: {exc}") from None


def load_run_config(document) -> RunConfig:
    """Parse a run-config JSON document (dict, JSON text, or file path)."""
    if isinstance(document, (str, Path)):
        text = str(document)
        if text.lstrip().startswith("{"):
            try:
                document = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON: {exc}") from None
        else:
            try:
                document = json.loads(Path(document).read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {document}: {exc}") from None
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
    if not isinstance(document, Mapping):
        raise ConfigError("run config must be a JSON object")

    seed = document.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    train_spec, train_count = _generator_from_document(document.get("train", {}), seed, "train")
    val_spec, val_count = _generator_from_document(document.get("val", {}), seed, "val")
    if train_spec.label == val_spec.label and train_spec.seed == val_spec.seed:
        raise ConfigError("train and val sections must differ in label or seed")
    modes_doc = document.get("modes", list(ABLATIONS))
    if not isinstance(modes_doc, list) or not modes_doc:
        raise ConfigError("modes must be a non-empty array")
    for mode in modes_doc:
        if mode not in ABLATIONS:
            raise ConfigError(f"unknown ablation mode {mode!r}")
    return RunConfig(
        seed=seed,
        train_spec=train_spec,
        train_count=train_count,
        val_spec=val_spec,
        val_count=val_count,
        library=_library_from_document(document.get("library")),
        loop=_loop_from_document(document.get("loop"), seed),
        modes=tuple(modes_doc),
    )


def default_run_config_document(seed: int = 0) -> dict:
    """Desk-scale defaults: 200 training and 50 validation layered graphs."""
    return {
        "seed": seed,
        "train": {"family": "layered", "count": 200, "layers": 5, "width": 5, "label": "train"},
        "val": {"family": "layered", "count": 50, "layers": 5, "width": 5, "label": "val"},
        "library": {"k": 2, "theta": 0.95, "budget": 50, "chain_min_len": 4},
        "loop": {
            "iterations": 3,
            "top_m": 5,
            "batch_size": 8,
            "runtime_weight": 0.01,
            "infeasibility_penalty": 5000.0,
            "runtime_mode": "zero",
            "provider": {"kind": "fallback"},
        },
        "modes": list(ABLATIONS),
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
    from .loop import loop_config_to_document

    return {
        "seed": cfg.seed,
        "train": _generator_to_document(cfg.train_spec, cfg.train_count),
        "val": _generator_to_document(cfg.val_spec, cfg.val_count),
        "library": {
            "k": cfg.library.k,
            "theta": cfg.library.theta,
            "budget": cfg.library.budget,
            "chain_min_len": cfg.library.chain_min_len,
        },
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
    kernels, normalizer = build_kernel_library(
        train,
        vocab=vocab,
        k=cfg.library.k,
        theta=cfg.library.theta,
        budget=cfg.library.budget,
        chain_min_len=cfg.library.chain_min_len,
    )
    return PreparedRun(train, val, vocab, kernels, normalizer)
