"""Pipeline configuration: one file, flag overrides, env-var secrets.

Configuration lives in a single YAML (or JSON) file with nested sections;
command-line flags override individual values, and API keys are only ever
named here (the value itself stays in the environment). Unknown keys are
rejected so typos fail loudly at startup.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import yaml

from .errors import ConfigError

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_METADATA_URL = "https://api.semanticscholar.org/graph/v1"

__all__ = ["PipelineConfig", "load_config"]


def _check_keys(section: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} setting(s): {', '.join(sorted(unknown))}")


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
        if self.item_attempts < 1:
            raise ConfigError(f"item attempts must be >= 1, got {self.item_attempts}")
        if self.temperature < 0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.gate_triggers_file is not None and not Path(self.gate_triggers_file).exists():
            raise ConfigError(f"gate triggers file {self.gate_triggers_file} does not exist")
        if self.prompts_dir is not None and not Path(self.prompts_dir).is_dir():
            raise ConfigError(f"prompts dir {self.prompts_dir} does not exist")


_SECTIONS = {"endpoint", "backend", "execution", "gate", "match", "metadata", "paths", "seed"}


def _value(section: Mapping[str, Any], key: str, convert: Callable[[Any], Any],
           default: Any) -> Any:
    """``convert(section[key])``, or ``default`` when the key is absent or null."""
    value = section.get(key)
    return default if value is None else convert(value)


def _from_mapping(raw: Mapping[str, Any], base_dir: Path) -> PipelineConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(raw, _SECTIONS, "top-level")
    cfg = PipelineConfig()

    def path_of(value: Any) -> Path:
        p = Path(str(value))
        return p if p.is_absolute() else base_dir / p

    endpoint = raw.get("endpoint") or {}
    _check_keys(endpoint, {"base_url", "model", "api_key_env", "temperature",
                           "max_output_tokens"}, "endpoint")
    cfg.base_url = _value(endpoint, "base_url", str, cfg.base_url)
    cfg.model_name = _value(endpoint, "model", str, cfg.model_name)
    cfg.api_key_env = _value(endpoint, "api_key_env", str, cfg.api_key_env)
    cfg.temperature = _value(endpoint, "temperature", float, cfg.temperature)
    cfg.max_output_tokens = _value(endpoint, "max_output_tokens", int, cfg.max_output_tokens)

    backend = raw.get("backend") or {}
    if isinstance(backend, str):
        backend = {"kind": backend}
    _check_keys(backend, {"kind", "script", "call_log"}, "backend")
    cfg.backend = _value(backend, "kind", str, cfg.backend)
    cfg.mock_script = _value(backend, "script", path_of, cfg.mock_script)
    cfg.mock_call_log = _value(backend, "call_log", path_of, cfg.mock_call_log)

    execution = raw.get("execution") or {}
    _check_keys(execution, {"concurrency", "retry_attempts", "retry_base_delay",
                            "retry_factor", "item_attempts"}, "execution")
    cfg.concurrency = _value(execution, "concurrency", int, cfg.concurrency)
    cfg.retry_attempts = _value(execution, "retry_attempts", int, cfg.retry_attempts)
    cfg.retry_base_delay = _value(execution, "retry_base_delay", float, cfg.retry_base_delay)
    cfg.retry_factor = _value(execution, "retry_factor", float, cfg.retry_factor)
    cfg.item_attempts = _value(execution, "item_attempts", int, cfg.item_attempts)

    gate = raw.get("gate") or {}
    _check_keys(gate, {"kind", "threshold", "triggers_file", "endpoint"}, "gate")
    cfg.gate_kind = _value(gate, "kind", str, cfg.gate_kind)
    cfg.gate_threshold = _value(gate, "threshold", float, cfg.gate_threshold)
    cfg.gate_triggers_file = _value(gate, "triggers_file", path_of, cfg.gate_triggers_file)
    cfg.gate_endpoint = _value(gate, "endpoint", str, cfg.gate_endpoint)

    match = raw.get("match") or {}
    _check_keys(match, {"jaccard_threshold", "beta"}, "match")
    cfg.jaccard_threshold = _value(match, "jaccard_threshold", float, cfg.jaccard_threshold)
    cfg.beta = _value(match, "beta", float, cfg.beta)

    metadata = raw.get("metadata") or {}
    _check_keys(metadata, {"base_url", "api_key_env"}, "metadata")
    cfg.metadata_base_url = _value(metadata, "base_url", str, cfg.metadata_base_url)
    cfg.metadata_api_key_env = _value(metadata, "api_key_env", str, cfg.metadata_api_key_env)

    paths = raw.get("paths") or {}
    _check_keys(paths, {"corpus", "output", "prompts"}, "paths")
    cfg.corpus_dir = _value(paths, "corpus", path_of, cfg.corpus_dir)
    cfg.output_dir = _value(paths, "output", path_of, cfg.output_dir)
    cfg.prompts_dir = _value(paths, "prompts", path_of, cfg.prompts_dir)
    cfg.seed = _value(raw, "seed", int, cfg.seed)
    return cfg


def load_config(path: str | Path | None) -> PipelineConfig:
    """Read and validate a configuration file; None yields the defaults."""
    if path is None:
        cfg = PipelineConfig()
        cfg.validate()
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    try:
        cfg = _from_mapping(raw, path.parent.resolve())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    cfg.validate()
    return cfg
