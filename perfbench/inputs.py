"""Seeded input generator for the benchmark workloads.

The seed decides the content: page text, dataset names, document ids,
which page gets which shape, and the wording of every reply. The *shape*
of a workload (how many pages pass the gate, how many mentions and blocks
each page carries, which replies are malformed, where faults land, how
many names each scored page has) is drawn once from a fixed structure
seed. Counts of calls, items and name pairs are therefore identical for
every seed, so two runs with different seeds do the same amount of work
and their timings can be compared.

Nothing here imports the program under test. Digests, prompt payloads and
output lines are computed from the documented on-disk and wire formats,
so the expectations form an oracle that is independent of the code being
measured.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

STRUCTURE_SEED = 20250214
BAD_SHARE = 0.02  # replies malformed on every retry, so their items are dead-lettered
GENERATE_PAGES_PER_DOC = 10
CORPUS_PAGES_PER_DOC = 12
CORPUS_GATED_SHARE = 0.5  # share of corpus_score pages carrying a gate trigger

# The keyword gate's shipped trigger terms. Filler text must contain none of
# them, so a page passes the gate exactly when the generator put a trigger
# sentence on it.
TRIGGER_TERMS = (
    "data", "dataset", "datasets", "database", "databases", "survey", "surveys",
    "census", "censuses", "records", "statistics", "indicator", "indicators",
    "index", "indices", "registry", "time series", "imagery",
)

FILLER = (
    "the of and to in a is that for on with as by this be are from at an which "
    "these it its was were has have not their more than between also such may "
    "can our we results analysis model effect effects policy growth income "
    "households region regions rural urban market markets price prices labor "
    "employment wages farm farmers production trade investment firms credit "
    "access health education schooling children women men program programs "
    "project projects impact impacts estimate estimates sample coefficient "
    "significant evidence approach method methods framework outcome outcomes "
    "average increase decrease share level levels rate rates country countries "
    "national local district districts village villages year years period "
    "baseline treatment control group groups study studies paper section table "
    "figure appendix variable variables specification robustness finding "
    "findings literature previous recent however therefore although while "
    "because during after before within across among under over both each other "
    "new large small higher lower positive negative strong weak direct indirect "
    "potential important relevant main key further additional total annual "
    "monthly poverty inequality consumption expenditure savings transfer "
    "transfers cash water sanitation energy electricity roads infrastructure "
    "climate rainfall drought land agricultural yields crop crops livestock "
    "migration remittances conflict governance institutions public private "
    "sector services quality costs benefit benefits returns risk shocks "
    "insurance finance banking mobile technology adoption network networks "
    "community communities household individual respondents interview "
    "questionnaire enumerators wave waves panel attrition weights clusters "
    "standard errors heterogeneity mechanism mechanisms channel channels"
).split()

COUNTRIES = (
    "Kenya", "Ghana", "Nigeria", "Uganda", "Tanzania", "Ethiopia", "Malawi",
    "Rwanda", "Senegal", "Mali", "Niger", "Zambia", "Bangladesh", "Nepal",
    "Pakistan", "India", "Vietnam", "Cambodia", "Indonesia", "Philippines",
    "Peru", "Bolivia", "Colombia", "Ecuador", "Guatemala", "Honduras", "Mexico",
    "Brazil", "Egypt", "Morocco", "Tunisia", "Jordan", "Yemen", "Iraq",
    "Albania", "Georgia", "Armenia", "Mongolia", "Tajikistan", "Kyrgyzstan",
)
KINDS = (
    "Demographic and Health Survey", "Living Standards Measurement Study",
    "Labour Force Survey", "Household Budget Survey",
    "Population and Housing Census", "Agricultural Census", "Enterprise Survey",
    "Integrated Household Panel", "Multiple Indicator Cluster Survey",
    "Census of Agriculture", "Financial Inclusion Database",
    "National Nutrition Survey", "Integrated Labour Market Panel",
    "Household Income and Expenditure Survey", "Service Delivery Indicators",
)
PRODUCERS = (
    "the national statistics office", "the World Bank", "the ministry of health",
    "ICF International", "UNICEF", "the central bank", "the ministry of agriculture",
)
DATA_TYPES = ("survey", "census", "administrative", "panel", "database")
REASONS_VALID = ("names a specific data collection", "refers to a data resource used in the study")
REASONS_INVALID = ("names an organization, not a data resource", "refers to a report, not data")


def doc_id_for(seed: int, index: int) -> str:
    return hashlib.sha1(f"doc:{seed}:{index}".encode()).hexdigest()


def digest(template_id: str, user_content: str) -> str:
    """Request identity: sha256 over template id, a NUL byte, and user content."""
    h = hashlib.sha256()
    h.update(template_id.encode("utf-8"))
    h.update(b"\x00")
    h.update(user_content.encode("utf-8"))
    return h.hexdigest()


def canonical(value) -> str:
    """The pretty JSON that carries a record inside a prompt."""
    return json.dumps(value, ensure_ascii=False, indent=2)


def line(value) -> str:
    """One line of a line-delimited record file, without the newline."""
    return json.dumps(value, ensure_ascii=False, separators=(", ", ": "))


_TOKEN = re.compile(r"[a-z0-9]+")


def tokens(name: str) -> frozenset[str]:
    return frozenset(_TOKEN.findall(name.lower()))


# ---------------------------------------------------------------------------
# page text


def _filler_sentence(rng: random.Random, n: int) -> str:
    words = rng.choices(FILLER, k=n)
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def page_text(rng: random.Random, inserted: list[str]) -> str:
    """A page of 300 to 450 words with ``inserted`` sentences at random places."""
    target = rng.randint(300, 450) - sum(len(s.split()) for s in inserted)
    sentences: list[str] = []
    while target > 0:
        n = min(target, rng.randint(8, 24))
        sentences.append(_filler_sentence(rng, max(n, 2)))
        target -= n
    for sentence in inserted:
        sentences.insert(rng.randint(0, len(sentences)), sentence)
    # paragraphs of four to seven sentences
    out, start = [], 0
    while start < len(sentences):
        step = rng.randint(4, 7)
        out.append(" ".join(sentences[start:start + step]))
        start += step
    return "\n\n".join(out)


def trigger_sentence(rng: random.Random) -> str:
    term = rng.choice(("data", "survey", "census", "statistics", "dataset", "indicators"))
    return f"The {term} used in this section come from several sources described below."


def dataset_name(rng: random.Random) -> str:
    name = f"{rng.choice(COUNTRIES)} {rng.choice(KINDS)}"
    if rng.random() < 0.5:
        name += f" {rng.randint(1995, 2022)}"
    return name


def acronym(name: str) -> str:
    return "".join(w[0] for w in name.split() if w[0].isupper())


# ---------------------------------------------------------------------------
# generate workloads: structure


@dataclass
class MentionShape:
    fields: tuple[str, ...]  # optional extractor fields carried: acronym/producer/year/data_type
    year_none: bool  # the extractor writes "None" for the year
    judge_valid: bool
    judge_infers_year: bool
    agent_valid: bool
    agent_harmonizes: bool


@dataclass
class BlockShape:
    mentions: list[MentionShape]
    judge_fmt: str
    judge_bad: bool
    reason_fmt: str
    reason_bad: bool
    judge_fault: bool = False
    reason_fault: bool = False


@dataclass
class PageShape:
    blocks: list[BlockShape]
    extract_fmt: str
    extract_bad: bool
    extract_fault: bool = False


def _mentions_per_page(rng: random.Random) -> int:
    """Long tail: most gated pages carry 0 to 3 mentions, a few up to 15."""
    r = rng.random()
    if r < 0.28:
        return 0
    if r < 0.58:
        return 1
    if r < 0.76:
        return 2
    if r < 0.87:
        return 3
    if r < 0.96:
        return rng.randint(4, 6)
    return rng.randint(7, 15)


def page_shapes(n_gated: int, n_faults: int) -> list[PageShape]:
    """Seed-independent shapes of the gated pages of a generate workload."""
    rng = random.Random(STRUCTURE_SEED * 31 + n_gated)
    fmts = ("bare", "fenced", "tagged")
    shapes: list[PageShape] = []
    for _ in range(n_gated):
        n = _mentions_per_page(rng)
        blocks: list[BlockShape] = []
        while n > 0:
            k = min(n, rng.choice((1, 1, 2, 3)))
            n -= k
            mentions = []
            for _ in range(k):
                judge_valid = rng.random() < 0.75
                mentions.append(MentionShape(
                    fields=tuple(f for f in ("acronym", "producer", "year", "data_type")
                                 if rng.random() < 0.4),
                    year_none=rng.random() < 0.1,
                    judge_valid=judge_valid,
                    judge_infers_year=rng.random() < 0.3,
                    agent_valid=rng.random() < 0.7,
                    agent_harmonizes=rng.random() < 0.3,
                ))
            blocks.append(BlockShape(
                mentions=mentions,
                judge_fmt=rng.choice(fmts),
                judge_bad=rng.random() < BAD_SHARE,
                reason_fmt=rng.choice(("tagged", "tagged_fenced")),
                reason_bad=rng.random() < BAD_SHARE,
            ))
        shapes.append(PageShape(
            blocks=blocks,
            extract_fmt=rng.choice(fmts),
            extract_bad=rng.random() < BAD_SHARE,
        ))
    _force_one_bad_per_stage(shapes)
    _place_faults(rng, shapes, n_faults)
    return shapes


def _reason_blocks(shapes: list[PageShape]) -> list[BlockShape]:
    return [
        b for s in shapes if not s.extract_bad for b in s.blocks
        if not b.judge_bad and any(m.judge_valid for m in b.mentions)
    ]


def _force_one_bad_per_stage(shapes: list[PageShape]) -> None:
    """Every stage quarantines at least one item, so every dead-letter path runs."""
    if not any(s.extract_bad for s in shapes):
        shapes[-1].extract_bad = True
    judge_blocks = [b for s in shapes if not s.extract_bad for b in s.blocks]
    if judge_blocks and not any(b.judge_bad for b in judge_blocks):
        judge_blocks[len(judge_blocks) // 2].judge_bad = True
    reason_blocks = _reason_blocks(shapes)
    if reason_blocks and not any(b.reason_bad for b in reason_blocks):
        reason_blocks[len(reason_blocks) // 3].reason_bad = True


def _place_faults(rng: random.Random, shapes: list[PageShape], n_faults: int) -> None:
    """Mark ``n_faults`` well-formed calls, spread over the three stages."""
    slots: list[tuple[str, object]] = []
    slots += [("extract", s) for s in shapes if not s.extract_bad]
    slots += [("judge", b) for s in shapes if not s.extract_bad for b in s.blocks
              if not b.judge_bad]
    slots += [("reason", b) for b in _reason_blocks(shapes) if not b.reason_bad]
    for stage, owner in rng.sample(slots, min(n_faults, len(slots))):
        setattr(owner, f"{stage}_fault", True)


# ---------------------------------------------------------------------------
# generate workloads: content, script and expected outputs


@dataclass
class GenerateInputs:
    """Everything one generate workload needs, plus what it must produce."""

    store_pages: list[dict]
    gated_keys: list[tuple[str, int]]  # sorted
    script: dict[tuple[str, str], str]  # (template id, digest) -> reply
    faults: set[tuple[str, str]]  # (template id, user content) failing once
    expected: dict[str, list[str]]  # stage file -> lines
    expected_dead: list[tuple[str, str, str, int, str]]
    expected_calls: int  # calls of an uninterrupted run
    items: dict[str, int]  # pipeline items per stage


def _format_reply(fmt: str, payload) -> str:
    if fmt == "bare":
        return json.dumps(payload)
    if fmt == "fenced":
        return "Here is what I found on the page.\n```json\n" + json.dumps(payload, indent=2) + "\n```\n"
    if fmt == "tagged":
        return ("I read the page sentence by sentence.\n<OUTPUTDATA>\n"
                + json.dumps(payload, indent=2) + "\n</OUTPUTDATA>\nNo further notes.")
    if fmt == "tagged_fenced":
        return ("Strategy: argue against each candidate, then rule.\n<OUTPUTDATA>```json\n"
                + json.dumps(payload, indent=2) + "\n```</OUTPUTDATA>")
    raise ValueError(fmt)


def _mention_dict(m: dict) -> dict:
    """DatasetMention in its serialized field order."""
    d = {"raw_name": m["raw_name"]}
    for key in ("harmonized_name", "acronym", "producer", "year", "data_type",
                "context", "specificity", "relevance"):
        if m.get(key) is not None:
            d[key] = m[key]
    d["mentioned_in"] = m["mentioned_in"]
    return d


def _block_dict(sentence: str, mentions: list[dict], doc_id: str, page: int) -> dict:
    return {
        "mentioned_in": sentence,
        "datasets": [_mention_dict(m) for m in mentions],
        "source": doc_id,
        "page": page,
    }


def make_generate_inputs(seed: int, n_pages: int, n_gated: int, *,
                         n_faults: int = 0) -> GenerateInputs:
    shapes = page_shapes(n_gated, n_faults)
    rng = random.Random(seed)
    positions = list(range(n_pages))
    rng.shuffle(positions)
    shape_at = {pos: shapes[i] for i, pos in enumerate(positions[:n_gated])}

    store_pages: list[dict] = []
    page_plan: dict[tuple[str, int], tuple[PageShape, list[tuple[str, list[dict]]]]] = {}
    for pos in range(n_pages):
        doc_id = doc_id_for(seed, pos // GENERATE_PAGES_PER_DOC)
        page_number = pos % GENERATE_PAGES_PER_DOC + 1
        shape = shape_at.get(pos)
        inserted: list[str] = []
        blocks: list[tuple[str, list[dict]]] = []
        if shape is not None:
            inserted.append(trigger_sentence(rng))
            used: set[str] = set()
            for bshape in shape.blocks:
                names = []
                while len(names) < len(bshape.mentions):
                    name = dataset_name(rng)
                    if name not in used:
                        used.add(name)
                        names.append(name)
                if len(names) == 1:
                    sentence = f"We draw on the {names[0]} to measure these outcomes."
                else:
                    sentence = ("We combine the " + ", the ".join(names[:-1])
                                + f" and the {names[-1]} in the main specification.")
                mentions = []
                for name, ms in zip(names, bshape.mentions):
                    m = {"raw_name": name, "mentioned_in": sentence}
                    if "acronym" in ms.fields:
                        m["acronym"] = acronym(name)
                    if "producer" in ms.fields:
                        m["producer"] = rng.choice(PRODUCERS)
                    if "year" in ms.fields:
                        m["year"] = str(rng.randint(1995, 2022))
                    if "data_type" in ms.fields:
                        m["data_type"] = rng.choice(DATA_TYPES)
                    mentions.append(m)
                blocks.append((sentence, mentions))
                inserted.append(sentence)
        text = page_text(rng, inserted)
        store_pages.append({"doc_id": doc_id, "page_number": page_number, "text": text})
        if shape is not None:
            page_plan[(doc_id, page_number)] = (shape, blocks)

    gated_keys = sorted(page_plan)
    text_of = {(p["doc_id"], p["page_number"]): p["text"] for p in store_pages}
    script: dict[tuple[str, str], str] = {}
    faults: set[tuple[str, str]] = set()
    expected: dict[str, list[str]] = {"extracted.jsonl": [], "judged.jsonl": [], "assessed.jsonl": []}
    dead: dict[str, list[tuple[str, str, str, int, str]]] = {"extract": [], "judge": [], "reason": []}
    calls = 0
    items = {"extract": 0, "judge": 0, "reason": 0}
    reason_queue: list[tuple[str, int, dict, BlockShape, list[MentionShape]]] = []
    judge_queue: list[tuple[str, int, dict, BlockShape]] = []

    for doc_id, page_number in gated_keys:
        shape, blocks = page_plan[(doc_id, page_number)]
        text = text_of[(doc_id, page_number)]
        items["extract"] += 1
        entries = []
        for (sentence, mentions), bshape in zip(blocks, shape.blocks):
            for m, ms in zip(mentions, bshape.mentions):
                entry = {"raw_name": m["raw_name"], "mentioned_in": sentence}
                for key in ("acronym", "producer", "year", "data_type"):
                    if key in m:
                        entry[key] = m[key]
                if ms.year_none and "year" not in m:
                    entry["year"] = "None"
                entries.append(entry)
        d = digest("extractor", text)
        key = f"{doc_id}:{page_number}:{d}"
        if shape.extract_bad:
            script[("extractor", d)] = json.dumps(entries or [{"raw_name": "x"}])[:-5]
            dead["extract"].append(("extract", key, doc_id, page_number, "ParseError"))
            calls += 3
            continue
        script[("extractor", d)] = _format_reply(shape.extract_fmt, entries)
        if shape.extract_fault:
            faults.add(("extractor", text))
        calls += 1
        block_dicts = [_block_dict(s, ms, doc_id, page_number) for s, ms in blocks]
        expected["extracted.jsonl"].append(
            line({"doc_id": doc_id, "page_number": page_number, "blocks": block_dicts})
        )
        for bd, bshape in zip(block_dicts, shape.blocks):
            judge_queue.append((doc_id, page_number, bd, bshape))

    for doc_id, page_number, bd, bshape in judge_queue:
        items["judge"] += 1
        content = canonical(bd)
        d = digest("judge", content)
        key = f"{doc_id}:{page_number}:{d}"
        verdicts, survivors = [], []
        for m, ms in zip(bd["datasets"], bshape.mentions):
            reason = rng.choice(REASONS_VALID if ms.judge_valid else REASONS_INVALID)
            v = {"raw_name": m["raw_name"], "valid": ms.judge_valid, "reason": reason}
            inferred = None
            if ms.judge_infers_year:
                inferred = str(rng.randint(1995, 2022))
                v["inferred_year"] = inferred
            verdicts.append(v)
            if ms.judge_valid:
                survivor = dict(m)
                if survivor.get("year") is None and inferred is not None:
                    survivor["year"] = inferred
                survivors.append((survivor, ms))
        if bshape.judge_bad:
            script[("judge", d)] = _format_reply(bshape.judge_fmt, {"verdicts": verdicts[:-1]})
            dead["judge"].append(("judge", key, doc_id, page_number, "ArityMismatch"))
            calls += 3
            continue
        script[("judge", d)] = _format_reply(bshape.judge_fmt, {"verdicts": verdicts})
        if bshape.judge_fault:
            faults.add(("judge", content))
        calls += 1
        expected["judged.jsonl"].append(line({"block": bd, "verdicts": verdicts}))
        if survivors:
            sb = dict(bd, datasets=[_mention_dict(s) for s, _ in survivors])
            reason_queue.append((doc_id, page_number, sb, bshape, [ms for _, ms in survivors]))

    for doc_id, page_number, sb, bshape, mshapes in reason_queue:
        items["reason"] += 1
        content = canonical(sb)
        d = digest("reasoner", content)
        key = f"{doc_id}:{page_number}:{d}"
        entries, assessments = [], []
        for m, ms in zip(sb["datasets"], mshapes):
            if ms.agent_valid:
                entry = {"raw_name": m["raw_name"], "valid": True,
                         "specificity": "properly_named", "context": rng.choice(("primary", "supporting"))}
                mention = dict(m)
                if ms.agent_harmonizes:
                    entry["harmonized_name"] = m["raw_name"]
                    mention["harmonized_name"] = m["raw_name"]
                assessment = {"mention": _mention_dict(mention), "valid": True,
                              "specificity": entry["specificity"], "context": entry["context"]}
            else:
                entry = {"raw_name": m["raw_name"], "valid": False,
                         "invalid_reason": "on review, this names a report"}
                assessment = {"mention": _mention_dict(m), "valid": False,
                              "specificity": None, "context": None,
                              "invalid_reason": entry["invalid_reason"]}
            entries.append(entry)
            assessments.append(assessment)
        if bshape.reason_bad:
            script[("reasoner", d)] = json.dumps({"datasets": entries})
            dead["reason"].append(("reason", key, doc_id, page_number, "NoPayloadFound"))
            calls += 3
            continue
        script[("reasoner", d)] = _format_reply(bshape.reason_fmt, {"datasets": entries})
        if bshape.reason_fault:
            faults.add(("reasoner", content))
        calls += 1
        expected["assessed.jsonl"].append(line({"block": sb, "assessments": assessments}))

    return GenerateInputs(
        store_pages=store_pages,
        gated_keys=gated_keys,
        script=script,
        faults=faults,
        expected=expected,
        expected_dead=dead["extract"] + dead["judge"] + dead["reason"],
        expected_calls=calls,
        items=items,
    )


def write_script(path, script: dict[tuple[str, str], str]) -> None:
    """Write a mock script file: one {stage, digest, response} object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for (stage, d), response in script.items():
            fh.write(json.dumps({"stage": stage, "digest": d, "response": response}) + "\n")


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(line(row) + "\n")


# ---------------------------------------------------------------------------
# corpus_score workload


@dataclass
class CorpusInputs:
    offered: list[dict]  # pages in offer order, duplicates included
    unique: list[dict]  # first occurrence of each key, sorted: the expected store
    gated_keys: set[tuple[str, int]]
    predictions: list[dict]
    gold: list[dict]
    pairs: int  # sum over pages of |predicted| * |gold|


def _names_per_page(rng: random.Random) -> int:
    """Long tail: most pages carry 0 to 5 names, about 2% carry 20 to 80."""
    if rng.random() < 0.02:
        return rng.randint(20, 80)
    return rng.choice((0, 0, 1, 1, 1, 2, 2, 3, 4, 5))


def _name_fates(n_pages: int) -> list[list[str]]:
    """Seed-independent fate of each gold name, plus spurious predictions."""
    rng = random.Random(STRUCTURE_SEED * 17 + n_pages)
    fates = []
    for _ in range(n_pages):
        g = _names_per_page(rng)
        page = [rng.choice(("exact", "exact", "drop", "add", "miss")) for _ in range(g)]
        page += ["spurious"] * rng.choice((0, 0, 0, 1, 1, 2))
        fates.append(page)
    return fates


def _score_name(rng: random.Random) -> str:
    name = f"{rng.choice(COUNTRIES)} {rng.choice(KINDS)}"
    if rng.random() < 0.7:
        name += f" {rng.randint(1990, 2023)}"
    if rng.random() < 0.3:
        name += f" wave {rng.randint(1, 6)}"
    return name


def make_corpus_inputs(seed: int, n_unique: int, n_duplicates: int) -> CorpusInputs:
    rng = random.Random(seed)
    n_gated = round(n_unique * CORPUS_GATED_SHARE)
    gated_positions = set(rng.sample(range(n_unique), n_gated))
    unique: list[dict] = []
    gated_keys: set[tuple[str, int]] = set()
    for pos in range(n_unique):
        key = (doc_id_for(seed, pos // CORPUS_PAGES_PER_DOC), pos % CORPUS_PAGES_PER_DOC + 1)
        inserted = [trigger_sentence(rng)] if pos in gated_positions else []
        unique.append({"doc_id": key[0], "page_number": key[1], "text": page_text(rng, inserted)})
        if pos in gated_positions:
            gated_keys.add(key)

    # duplicates repeat an earlier key with fresh text; the store keeps the first
    offered = list(unique)
    rng.shuffle(offered)
    for source in rng.sample(range(n_unique), n_duplicates):
        page = unique[source]
        first = next(i for i, p in enumerate(offered) if p is page)
        dup = {"doc_id": page["doc_id"], "page_number": page["page_number"],
               "text": page_text(rng, [])}
        offered.insert(rng.randint(first + 1, len(offered)), dup)

    predictions, gold, pairs = [], [], 0
    for page, fates in zip(unique, _name_fates(n_unique)):
        gold_names: list[str] = []
        seen: set[frozenset[str]] = set()
        for fate in fates:
            if fate == "spurious":
                continue
            while True:
                name = _score_name(rng)
                if tokens(name) not in seen:
                    seen.add(tokens(name))
                    gold_names.append(name)
                    break
        pred_names: list[str] = []
        for fate, name in zip([f for f in fates if f != "spurious"], gold_names):
            words = name.split()
            if fate == "exact":
                pred_names.append(name)
            elif fate == "drop":
                del words[rng.randrange(len(words))]
                pred_names.append(" ".join(words))
            elif fate == "add":
                words.insert(rng.randint(0, len(words)), rng.choice(("national", "panel", "round", "microdata")))
                pred_names.append(" ".join(words))
        pred_names += [_score_name(rng) for f in fates if f == "spurious"]
        rng.shuffle(pred_names)
        pairs += len(pred_names) * len(gold_names)
        key = {"doc_id": page["doc_id"], "page_number": page["page_number"]}
        predictions.append(dict(key, predicted_names=pred_names))
        gold.append(dict(key, gold_names=gold_names))
    return CorpusInputs(
        offered=offered,
        unique=sorted(unique, key=lambda p: (p["doc_id"], p["page_number"])),
        gated_keys=gated_keys,
        predictions=predictions,
        gold=gold,
        pairs=pairs,
    )

