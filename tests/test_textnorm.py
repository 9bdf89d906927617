from __future__ import annotations

from datamentions.textnorm import normalize_tokens

from oracles import oracle_tokens


def test_lowercases_and_splits_on_non_alphanumerics() -> None:
    assert normalize_tokens("World Development Indicators (WDI), 2019") == frozenset(
        {"world", "development", "indicators", "wdi", "2019"}
    )


def test_duplicates_collapse() -> None:
    assert normalize_tokens("data data DATA") == frozenset({"data"})


def test_empty_and_punctuation_only() -> None:
    assert normalize_tokens("") == frozenset()
    assert normalize_tokens("—…!?") == frozenset()


def test_non_ascii_letters_are_separators() -> None:
    # accented characters are not ASCII alphanumerics, so they split tokens
    assert normalize_tokens("Enquête Agricole") == frozenset({"enqu", "te", "agricole"})


def test_agrees_with_character_walking_oracle() -> None:
    samples = [
        "Toxic Release Inventory (TRI)",
        "India’s quinquennial labor force survey",
        "1.5°C pathways; scenario-data v2.0",
        "",
        "   \t\n ",
    ]
    for sample in samples:
        assert normalize_tokens(sample) == frozenset(oracle_tokens(sample))
