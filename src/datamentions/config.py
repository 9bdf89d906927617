"""Pipeline configuration: one file, flag overrides, env-var secrets.

Configuration lives in a single YAML (or JSON) file with nested sections;
command-line flags override individual values, and API keys are only ever
named here (the value itself stays in the environment). Unknown keys are
rejected so typos fail loudly at startup.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError, InvalidRecord
from .records import _coerce_int, _text

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_METADATA_URL = "https://api.semanticscholar.org/graph/v1"

__all__ = ["PipelineConfig", "load_config"]


def _check_keys(section: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:  # a YAML key may be a number, a boolean or null: each is named by its str
        raise ConfigError(f"unknown {where} setting(s): {', '.join(sorted(map(str, unknown)))}")


@dataclass
class PipelineConfig:
    """Every pipeline setting, with its default; :func:`load_config` fills it from a file."""

    # chat endpoint
    base_url: str = DEFAULT_BASE_URL
    model_name: str = "gpt-4o-mini-2024-07-18"
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_output_tokens: int = 4096
    # backend selection
    backend: str = "remote"  # remote | mock
    mock_script: Path | None = None
    mock_call_log: Path | None = None
    # execution
    concurrency: int = 1
    retry_attempts: int = 5
    retry_base_delay: float = 1.0
    retry_factor: float = 2.0
    item_attempts: int = 3
    # gate
    gate_kind: str = "always_pass"  # always_pass | keyword | remote
    gate_threshold: float = 0.5
    gate_triggers_file: Path | None = None
    gate_endpoint: str | None = None
    # matching
    jaccard_threshold: float = 0.5
    beta: float = 0.5
    # metadata index
    metadata_base_url: str = DEFAULT_METADATA_URL
    metadata_api_key_env: str = "S2_API_KEY"
    # paths
    corpus_dir: Path = Path("corpus")
    output_dir: Path = Path("out")
    prompts_dir: Path | None = None
    # randomness
    seed: int = 13

    def validate(self) -> None:
        if self.backend not in ("remote", "mock"):
            raise ConfigError(f"backend must be remote or mock, got {self.backend!r}")
        if self.backend == "mock":
            if self.mock_script is None:
                raise ConfigError("mock backend needs backend.script")
            if not Path(self.mock_script).exists():
                raise ConfigError(f"mock script {self.mock_script} does not exist")
        if self.gate_kind not in ("always_pass", "keyword", "remote"):
            raise ConfigError(f"unknown gate kind {self.gate_kind!r}")
        if self.gate_kind == "remote" and not self.gate_endpoint:
            raise ConfigError("remote gate needs gate.endpoint")
        if not 0.0 <= self.gate_threshold <= 1.0:
            raise ConfigError(f"gate threshold must be in [0,1], got {self.gate_threshold}")
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise ConfigError(
                f"jaccard threshold must be in [0,1], got {self.jaccard_threshold}"
            )
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.retry_attempts < 1:
            raise ConfigError(f"retry attempts must be >= 1, got {self.retry_attempts}")
        if self.retry_base_delay < 0:
            raise ConfigError(f"retry_base_delay must be >= 0, got {self.retry_base_delay}")
        if self.item_attempts < 1:
            raise ConfigError(f"item attempts must be >= 1, got {self.item_attempts}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ConfigError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        if self.gate_triggers_file is not None and not Path(self.gate_triggers_file).exists():
            raise ConfigError(f"gate triggers file {self.gate_triggers_file} does not exist")
        if self.prompts_dir is not None and not Path(self.prompts_dir).is_dir():
            raise ConfigError(f"prompts dir {self.prompts_dir} does not exist")


# section -> key -> (PipelineConfig field, type). An int is read by records._coerce_int's
# rule, text and a path by records._text's less booleans, and a float is a finite int or
# float, not a bool; a path that is not absolute is read against the configuration
# file's directory.
_SECTIONS: dict[str, dict[str, tuple[str, type]]] = {
    "endpoint": {"base_url": ("base_url", str), "model": ("model_name", str),
                 "api_key_env": ("api_key_env", str), "temperature": ("temperature", float),
                 "max_output_tokens": ("max_output_tokens", int)},
    "backend": {"kind": ("backend", str), "script": ("mock_script", Path),
                "call_log": ("mock_call_log", Path)},
    "execution": {"concurrency": ("concurrency", int),
                  "retry_attempts": ("retry_attempts", int),
                  "retry_base_delay": ("retry_base_delay", float),
                  "retry_factor": ("retry_factor", float),
                  "item_attempts": ("item_attempts", int)},
    "gate": {"kind": ("gate_kind", str), "threshold": ("gate_threshold", float),
             "triggers_file": ("gate_triggers_file", Path), "endpoint": ("gate_endpoint", str)},
    "match": {"jaccard_threshold": ("jaccard_threshold", float), "beta": ("beta", float)},
    "metadata": {"base_url": ("metadata_base_url", str),
                 "api_key_env": ("metadata_api_key_env", str)},
    "paths": {"corpus": ("corpus_dir", Path), "output": ("output_dir", Path),
              "prompts": ("prompts_dir", Path)},
}
_TOP_LEVEL = {"seed": ("seed", int)}


def _from_mapping(raw: Mapping[str, Any], base_dir: Path) -> PipelineConfig:
    """The settings ``raw`` holds; an absent or null key keeps the default."""
    if not isinstance(raw, Mapping):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(raw, {*_SECTIONS, *_TOP_LEVEL}, "top-level")
    settings = [("top-level", key, raw.get(key), *spec) for key, spec in _TOP_LEVEL.items()]
    for name, keys in _SECTIONS.items():
        section = raw.get(name) or {}
        if name == "backend" and isinstance(section, str):
            section = {"kind": section}
        if not isinstance(section, Mapping):
            raise ConfigError(f"{name} must be a mapping of settings")
        _check_keys(section, set(keys), name)
        settings += [(name, key, section.get(key), *spec) for key, spec in keys.items()]
    cfg = PipelineConfig()
    for where, key, value, field, kind in settings:
        if value is None:
            continue
        if kind is int:
            value = _coerce_int(value, key, where)
        elif kind is float:  # the bound refuses NaN too
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise InvalidRecord(f"{where}: {key} is not a finite number: {value!r}")
            value = float(value)
        elif type(value) is bool:  # a YAML yes or no where text or a path was meant
            raise InvalidRecord(f"{where}: {key} is not text: {value!r}")
        else:
            value = kind(_text(value, f"{where}: {key}"))
            if kind is Path and not value.is_absolute():
                value = base_dir / value
        setattr(cfg, field, value)
    return cfg


def load_config(path: str | Path | None) -> PipelineConfig:
    """Read and validate a configuration file; None yields the defaults.

    A file that is JSON is read by ``json``; any other is read as YAML.
    """
    if path is None:
        cfg = PipelineConfig()
        cfg.validate()
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        # PyYAML is imported here, so a run with no file or a JSON one never loads it
        import yaml

        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    try:
        cfg = _from_mapping(raw, path.parent.resolve())
    except (InvalidRecord, TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    cfg.validate()
    return cfg
