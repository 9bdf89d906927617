"""Shared helpers for scripting the three-stage pipeline in tests.

A "case" is (page, names, judge_validity, agent_validity): the mention
names extracted from the page, which of them the judge keeps, and how the
agent rules on the judge-valid survivors.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from datamentions.llm import request_digest
from datamentions.records import MentionBlock, PageRecord, canonical_json, parse_mention_block

Case = tuple[PageRecord, list[str], list[bool], list[bool]]


def extractor_response(names: list[str], sentence: str) -> str:
    return json.dumps([{"raw_name": name, "mentioned_in": sentence} for name in names])


def judge_response(block: MentionBlock, valid: list[bool]) -> str:
    return json.dumps(
        {
            "verdicts": [
                {
                    "raw_name": mention.raw_name,
                    "valid": v,
                    "reason": "refers to a data resource" if v else "names an organization",
                }
                for mention, v in zip(block.datasets, valid)
            ]
        }
    )


def reason_response(block: MentionBlock, valid: list[bool]) -> str:
    entries = []
    for mention, v in zip(block.datasets, valid):
        if v:
            entries.append(
                {
                    "raw_name": mention.raw_name,
                    "valid": True,
                    "specificity": "properly_named",
                    "context": "primary",
                }
            )
        else:
            entries.append(
                {
                    "raw_name": mention.raw_name,
                    "valid": False,
                    "invalid_reason": "on review, this names a report",
                }
            )
    body = json.dumps({"datasets": entries}, indent=2)
    return (
        "Strategy: argue against each candidate, then rule.\n"
        f"<OUTPUTDATA>```json\n{body}\n```</OUTPUTDATA>"
    )


def block_for(page: PageRecord, names: list[str]) -> MentionBlock:
    block, warnings = parse_mention_block(
        {
            "mentioned_in": page.text,
            "datasets": [{"raw_name": name} for name in names],
            "source": page.doc_id,
            "page": page.page_number,
        }
    )
    assert warnings == []
    return block


def pipeline_script(cases: list[Case]) -> dict[tuple[str, str], str]:
    """Script all three stages for pages carrying one mention block each."""
    script: dict[tuple[str, str], str] = {}
    for page, names, judge_valid, agent_valid in cases:
        if not names:
            script[("extractor", request_digest("extractor", page.text))] = "[]"
            continue
        script[("extractor", request_digest("extractor", page.text))] = (
            extractor_response(names, page.text)
        )
        block = block_for(page, names)
        judge_key = request_digest("judge", canonical_json(block.to_dict()))
        script[("judge", judge_key)] = judge_response(block, judge_valid)
        survivors = tuple(m for m, v in zip(block.datasets, judge_valid) if v)
        if not survivors:
            continue
        survivor_block = replace(block, datasets=survivors)
        reason_key = request_digest("reasoner", canonical_json(survivor_block.to_dict()))
        script[("reasoner", reason_key)] = reason_response(survivor_block, agent_valid)
    return script


def write_script_file(path: Path, script: dict[tuple[str, str], str]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for (stage, digest), response in script.items():
            fh.write(
                json.dumps({"stage": stage, "digest": digest, "response": response}) + "\n"
            )
    return path


def stage_file_bytes(directory: Path) -> dict[str, bytes]:
    return {
        name: (directory / name).read_bytes()
        for name in ("extracted.jsonl", "judged.jsonl", "assessed.jsonl", "deadletter.jsonl")
    }
