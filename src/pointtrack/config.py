"""Global flat key=value configuration covering every tunable default."""

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError
from .formats import parse_kv_text
from .gog import GogConfig
from .pipeline import TrackerConfig


@dataclass(frozen=True)
class ToolkitConfig:
    """Everything the CLI subcommands need, resolved from one file."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    gog: GogConfig = field(default_factory=GogConfig)
    idsw_gate: float = 10.0


# config key -> dotted path(s) of the ToolkitConfig field(s) it sets
KEYS = {
    "min_hits": "tracker.lifecycle.min_hits",
    "max_age": "tracker.lifecycle.max_age",
    "base_radius_px": "tracker.gating.base_radius gog.gate",
    "reference_altitude_m": "tracker.gating.reference_altitude",
    "cls_lead": "tracker.lifecycle.cls_lead",
    "cls_confirm_threshold": "tracker.lifecycle.cls_confirm_threshold",
    "tentative_miss_tolerance": "tracker.lifecycle.tentative_miss_tolerance",
    "pending_fail_patience": "tracker.lifecycle.pending_fail_patience",
    "dcf_patch_cells": "tracker.dcf.patch_cells",
    "dcf_lambda": "tracker.dcf.regularization",
    "dcf_learning_rate": "tracker.dcf.learning_rate",
    "dcf_label_sigma": "tracker.dcf.label_sigma",
    "dcf_psr_min": "tracker.dcf.psr_min",
    "ransac_iters": "tracker.ransac.iterations",
    "ransac_inlier_px": "tracker.ransac.inlier_threshold",
    "ransac_min_inliers": "tracker.ransac.min_inliers",
    "gog_entry_cost": "gog.entry_cost",
    "gog_exit_cost": "gog.exit_cost",
    "gog_gap_penalty": "gog.gap_penalty",
    "gog_max_gap": "gog.max_gap",
    "idsw_gate_px": "idsw_gate",
    "emit_coasted": "tracker.emit_coasted",
    "process_noise_pos": "tracker.motion.process_noise_pos",
    "process_noise_vel": "tracker.motion.process_noise_vel",
    "measurement_noise": "tracker.motion.measurement_noise",
    "initial_pos_var": "tracker.motion.initial_pos_var",
    "initial_vel_var": "tracker.motion.initial_vel_var",
}

_NOUNS = {int: "an integer", float: "a number", bool: "a boolean"}


def decode_value(key: str, raw: str, kind):
    """Convert one raw value to kind: int, float, bool, str, or a parser
    function that raises ConfigError itself."""
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise ConfigError(f"{key} must be {_NOUNS[kind]}, got {raw!r}")


def decode_kv(values: dict[str, str], kinds: dict[str, object], what: str) -> dict[str, object]:
    """Type parsed key=value text; kinds maps every known key to the kind
    of its value (see decode_value), and any other key is an error."""
    typed = {}
    for key, raw in values.items():
        if key not in kinds:
            raise ConfigError(f"unknown {what} key {key!r}")
        typed[key] = decode_value(key, raw, kinds[key])
    return typed


def _field_type(path: str):
    cls = ToolkitConfig
    for name in path.split("."):
        cls = next(f.type for f in fields(cls) if f.name == name)
    return cls


_KINDS = {key: _field_type(paths.split()[0]) for key, paths in KEYS.items()}


def _build(cls, prefix: str, values: dict[str, object]):
    """Construct cls and its nested config dataclasses from {dotted path:
    value}; fields without a value keep their defaults."""
    kwargs = {}
    for f in fields(cls):
        path = prefix + f.name
        if is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, path + ".", values)
        elif path in values:
            kwargs[f.name] = values[path]
    return cls(**kwargs)


def toolkit_config_from_kv(values: dict[str, str]) -> ToolkitConfig:
    typed = decode_kv(values, _KINDS, "configuration")
    return _build(ToolkitConfig, "", {path: value for key, value in typed.items()
                                      for path in KEYS[key].split()})


def load_toolkit_config(path=None) -> ToolkitConfig:
    """Read the config file; None gives all defaults."""
    if path is None:
        return ToolkitConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    return toolkit_config_from_kv(parse_kv_text(p.read_text()))
