from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from datamentions.cli import main
from datamentions.config import PipelineConfig, load_config
from datamentions.errors import ConfigError


def test_defaults_validate() -> None:
    cfg = load_config(None)
    assert cfg.backend == "remote"
    assert cfg.gate_kind == "always_pass"
    assert cfg.beta == 0.5
    assert cfg.jaccard_threshold == 0.5
    assert cfg.seed == 13


def test_missing_file_is_a_config_error(tmp_path) -> None:
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_full_file_with_relative_paths(tmp_path) -> None:
    script = tmp_path / "script.jsonl"
    script.write_text("", encoding="utf-8")
    config_path = tmp_path / "pipeline.yaml"
    config_path.write_text(
        """
endpoint:
  base_url: https://llm.example/v1
  model: test-model
  temperature: 0.2
backend:
  kind: mock
  script: script.jsonl
execution:
  concurrency: 4
  retry_attempts: 2
gate:
  kind: keyword
match:
  beta: 1.0
paths:
  corpus: store
  output: runs/out
seed: 99
""",
        encoding="utf-8",
    )
    cfg = load_config(config_path)
    assert cfg.base_url == "https://llm.example/v1"
    assert cfg.model_name == "test-model"
    assert cfg.temperature == 0.2
    assert cfg.backend == "mock"
    assert cfg.mock_script == tmp_path / "script.jsonl"
    assert cfg.concurrency == 4
    assert cfg.gate_kind == "keyword"
    assert cfg.beta == 1.0
    assert cfg.corpus_dir == tmp_path / "store"
    assert cfg.output_dir == tmp_path / "runs" / "out"
    assert cfg.seed == 99


def test_backend_string_shorthand(tmp_path) -> None:
    config_path = tmp_path / "c.yaml"
    config_path.write_text("backend: remote\n", encoding="utf-8")
    assert load_config(config_path).backend == "remote"


_UNKNOWN = [
    ("endpoint:\n  modle: oops\n", "unknown endpoint setting(s): modle"),
    ("backend:\n  scirpt: s.jsonl\n", "unknown backend setting(s): scirpt"),
    ("execution:\n  workers: 2\n", "unknown execution setting(s): workers"),
    ("gate:\n  treshold: 0.3\n", "unknown gate setting(s): treshold"),
    ("match:\n  jacard_threshold: 0.3\n", "unknown match setting(s): jacard_threshold"),
    ("metadata:\n  url: x\n", "unknown metadata setting(s): url"),
    ("paths:\n  out: x\n", "unknown paths setting(s): out"),
    ("surprises: true\n", "unknown top-level setting(s): surprises"),
    ("endpoint: [model]\n", "endpoint must be a mapping of settings"),
]


def test_unknown_keys_are_rejected(tmp_path) -> None:
    config_path = tmp_path / "c.yaml"
    for text, message in _UNKNOWN:
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(config_path)
        assert str(excinfo.value) == message


def test_every_key_of_every_section_sets_its_field(tmp_path) -> None:
    for name in ("script.jsonl", "triggers.txt"):
        (tmp_path / name).write_text("", encoding="utf-8")
    (tmp_path / "prompts").mkdir()
    config_path = tmp_path / "every.yaml"
    config_path.write_text(
        """
endpoint:
  base_url: https://llm.example/v1
  model: test-model
  api_key_env: LLM_KEY
  temperature: 0.3
  max_output_tokens: 512
backend:
  kind: mock
  script: script.jsonl
  call_log: logs/calls.jsonl
execution:
  concurrency: 3
  retry_attempts: 4
  retry_base_delay: 0.25
  retry_factor: 3
  item_attempts: 2
gate:
  kind: remote
  threshold: 0.7
  triggers_file: triggers.txt
  endpoint: http://gate.example/score
match:
  jaccard_threshold: 0.6
  beta: 2
metadata:
  base_url: https://meta.example/v1
  api_key_env: META_KEY
paths:
  corpus: store
  output: runs/out
  prompts: prompts
seed: 21
""",
        encoding="utf-8",
    )
    cfg = load_config(config_path)
    assert vars(cfg) == {
        "base_url": "https://llm.example/v1",
        "model_name": "test-model",
        "api_key_env": "LLM_KEY",
        "temperature": 0.3,
        "max_output_tokens": 512,
        "backend": "mock",
        "mock_script": tmp_path / "script.jsonl",
        "mock_call_log": tmp_path / "logs" / "calls.jsonl",
        "concurrency": 3,
        "retry_attempts": 4,
        "retry_base_delay": 0.25,
        "retry_factor": 3.0,
        "item_attempts": 2,
        "gate_kind": "remote",
        "gate_threshold": 0.7,
        "gate_triggers_file": tmp_path / "triggers.txt",
        "gate_endpoint": "http://gate.example/score",
        "jaccard_threshold": 0.6,
        "beta": 2.0,
        "metadata_base_url": "https://meta.example/v1",
        "metadata_api_key_env": "META_KEY",
        "corpus_dir": tmp_path / "store",
        "output_dir": tmp_path / "runs" / "out",
        "prompts_dir": tmp_path / "prompts",
        "seed": 21,
    }
    assert type(cfg.retry_factor) is float and type(cfg.beta) is float


def test_mock_backend_requires_existing_script(tmp_path) -> None:
    config_path = tmp_path / "c.yaml"
    config_path.write_text("backend:\n  kind: mock\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(config_path)
    config_path.write_text(
        "backend:\n  kind: mock\n  script: missing.jsonl\n", encoding="utf-8"
    )
    with pytest.raises(ConfigError):
        load_config(config_path)


def test_remote_gate_requires_endpoint() -> None:
    cfg = PipelineConfig(gate_kind="remote")
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg.gate_endpoint = "http://gate.example/score"
    cfg.validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("backend", "cloud"),
        ("gate_kind", "psychic"),
        ("gate_threshold", 2.0),
        ("jaccard_threshold", -0.1),
        ("beta", 0.0),
        ("concurrency", 0),
        ("retry_attempts", 0),
        ("item_attempts", 0),
        ("temperature", -1.0),
    ],
)
def test_out_of_range_values(field, value) -> None:
    cfg = PipelineConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_yaml_parse_error(tmp_path) -> None:
    config_path = tmp_path / "c.yaml"
    config_path.write_text("gate: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(config_path)


def test_json_is_valid_config_syntax(tmp_path) -> None:
    config_path = tmp_path / "c.json"
    config_path.write_text('{"seed": 7, "match": {"beta": 2.0}}', encoding="utf-8")
    cfg = load_config(config_path)
    assert cfg.seed == 7
    assert cfg.beta == 2.0


_YAML_LOADED = """
import sys

import datamentions.cli
from datamentions.config import load_config

loaded = ["yaml" in sys.modules]
load_config(None)
json_cfg = load_config(sys.argv[2])
loaded.append("yaml" in sys.modules)
yaml_cfg = load_config(sys.argv[1])
loaded.append("yaml" in sys.modules)
print(loaded, json_cfg.seed, yaml_cfg.seed, yaml_cfg.beta)
"""


def test_pyyaml_is_loaded_only_for_a_yaml_config(tmp_path) -> None:
    # in a fresh process, since this one has imported yaml already
    yaml_path, json_path = tmp_path / "c.yaml", tmp_path / "c.json"
    yaml_path.write_text("seed: 7\nmatch:\n  beta: 2.0\n", encoding="utf-8")
    json_path.write_text('{"seed": 8}', encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _YAML_LOADED, str(yaml_path), str(json_path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[False,", "False,", "True]", "8", "7", "2.0"]


def test_prompts_dir_must_exist(tmp_path) -> None:
    cfg = PipelineConfig(prompts_dir=Path(tmp_path / "nope"))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_an_explicit_null_counts_as_an_absent_key(tmp_path) -> None:
    config_path = tmp_path / "c.yaml"
    config_path.write_text(
        "endpoint:\n  base_url: null\n  model: null\n  temperature: null\n"
        "execution:\n  concurrency: null\n"
        "gate:\n  kind: null\n  endpoint: null\n"
        "metadata:\n  base_url: null\n"
        "paths:\n  output: null\n"
        "seed: null\n",
        encoding="utf-8",
    )
    defaults = PipelineConfig()
    cfg = load_config(config_path)
    assert cfg == defaults
    assert (cfg.base_url, cfg.model_name) == (defaults.base_url, defaults.model_name)


@pytest.mark.parametrize("text, key", [
    ('{"execution": {"concurrency": 2.5}}', "concurrency"),
    ('{"execution": {"item_attempts": true}}', "item_attempts"),
    ('{"execution": {"retry_attempts": "2.0"}}', "retry_attempts"),
    ('{"seed": 1.5}', "seed"),
    ('{"endpoint": {"model": {"a": 1}}}', "model"),
    ('{"backend": {"kind": ["mock"]}}', "kind"),
    ('{"paths": {"output": ["runs"]}}', "output"),
    ('{"endpoint": {"temperature": "nan"}}', "temperature"),
    ('{"endpoint": {"temperature": NaN}}', "temperature"),
    ('{"endpoint": {"temperature": "0.2"}}', "temperature"),
    ('{"execution": {"retry_factor": Infinity}}', "retry_factor"),
    ('{"match": {"beta": 1e999}}', "beta"),
    ('{"match": {"beta": 1' + "0" * 400 + '}}', "beta"),
    ('{"gate": {"threshold": true}}', "threshold"),
    ('{"execution": {"retry_base_delay": -1}}', "retry_base_delay"),
    ('{"endpoint": {"max_output_tokens": 0}}', "max_output_tokens"),
], ids=["fractional int", "bool int", "text float as int", "fractional seed", "object text",
        "array text", "array path", "nan text", "nan", "text float", "infinity",
        "overflowing float", "int past the largest float", "bool float", "negative delay",
        "no output tokens"])
def test_a_value_that_breaks_its_keys_rule_is_a_config_error_naming_the_key(
    tmp_path, capsys, text, key
) -> None:
    config_path = tmp_path / "c.json"
    config_path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        load_config(config_path)
    argv = ["--config", str(config_path), "generate", "--pages", str(tmp_path / "pages.jsonl")]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]  # no out/


def test_integers_are_read_by_the_record_rule_and_text_by_the_text_rule(tmp_path) -> None:
    config_path = tmp_path / "c.json"
    config_path.write_text('{"execution": {"concurrency": " 3 ", "retry_base_delay": 0},'
                           ' "endpoint": {"model": 5, "temperature": 1}, "seed": "8"}',
                           encoding="utf-8")
    cfg = load_config(config_path)
    assert (cfg.concurrency, cfg.seed, cfg.model_name) == (3, 8, "5")
    assert (cfg.retry_base_delay, cfg.temperature) == (0.0, 1.0)
    assert type(cfg.retry_base_delay) is float and type(cfg.temperature) is float
