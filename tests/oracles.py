"""Independent re-implementations used to cross-check the library.

Everything here is written from the metric definitions, deliberately not
sharing code with the package: a character-walking tokenizer, a set-based
Jaccard, a pair-by-pair greedy matcher, an exhaustive maximum-cardinality
matcher, and the textbook F-beta formula. Slow is fine; these only run in tests.
"""

from __future__ import annotations

from itertools import permutations


def oracle_tokens(text: str) -> set[str]:
    """Unique lowercase alphanumeric runs, found by walking characters."""
    tokens: set[str] = set()
    current: list[str] = []
    for ch in text.lower():
        if ("a" <= ch <= "z") or ("0" <= ch <= "9"):
            current.append(ch)
        elif current:
            tokens.add("".join(current))
            current = []
    if current:
        tokens.add("".join(current))
    return tokens


def oracle_jaccard(a: str, b: str) -> float:
    ta, tb = oracle_tokens(a), oracle_tokens(b)
    union = ta | tb
    if not union:
        return 0.0
    return len(ta & tb) / len(union)


def oracle_greedy_match(
    predicted: list[str], gold: list[str], threshold: float = 0.5
) -> tuple[int, int, int, tuple[tuple[int, int, float], ...]]:
    """(tp, fp, fn, pairs) of greedy matching, one accepted pair at a time.

    Each round scans every pair of a still-unused gold name and prediction,
    recomputing its Jaccard from the strings, and accepts the one above the
    threshold with the highest Jaccard, then the lowest gold index, then the
    lowest prediction index. Pairs are (gold index, prediction index,
    Jaccard) in the order accepted.
    """
    pairs: list[tuple[int, int, float]] = []
    used_gold: set[int] = set()
    used_pred: set[int] = set()
    while True:
        best: tuple[int, int, float] | None = None
        for gi, g in enumerate(gold):
            for pi, p in enumerate(predicted):
                if gi in used_gold or pi in used_pred:
                    continue
                j = oracle_jaccard(p, g)
                if j > threshold and (best is None or j > best[2]):
                    best = (gi, pi, j)
        if best is None:
            break
        pairs.append(best)
        used_gold.add(best[0])
        used_pred.add(best[1])
    tp = len(pairs)
    return tp, len(predicted) - tp, len(gold) - tp, tuple(pairs)


def exhaustive_match_size(
    predicted: list[str], gold: list[str], threshold: float = 0.5
) -> int:
    """Size of a maximum matching in the above-threshold bipartite graph.

    Tries every assignment of gold items to distinct predictions (None =
    unmatched), so it is only usable for small instances.
    """
    allowed = [
        [pi for pi, p in enumerate(predicted) if oracle_jaccard(p, g) > threshold]
        for g in gold
    ]
    slots = list(range(len(predicted))) + [None] * len(gold)
    best = 0
    for assignment in set(permutations(slots, len(gold))):
        size = sum(
            1
            for gi, pi in enumerate(assignment)
            if pi is not None and pi in allowed[gi]
        )
        best = max(best, size)
    return best


def oracle_fbeta(precision: float, recall: float, beta: float) -> float:
    if precision + recall == 0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)
