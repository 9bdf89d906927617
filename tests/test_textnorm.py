from __future__ import annotations

import string

from hypothesis import given, strategies as st

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


# ASCII letters, digits and punctuation; the control characters str.split()
# takes for whitespace; and non-ASCII characters whose lower() is longer
# (İ), is ASCII (the Kelvin sign) or is neither (NEL, é, ß).
_PARITY_ALPHABET = (
    string.ascii_letters + string.digits + string.punctuation + " \t\n\r"
    + "\x0b\x0c\x1c\x1d\x1e\x1f" + "\x85\u00e9\u00df\u0130\u212a"
)


@given(st.text(alphabet=_PARITY_ALPHABET, max_size=40))
def test_agrees_with_the_oracle_on_ascii_and_non_ascii_text(text) -> None:
    assert normalize_tokens(text) == frozenset(oracle_tokens(text))


def test_the_kelvin_sign_lowercases_to_an_ascii_letter() -> None:
    assert normalize_tokens("\u212aenya survey") == frozenset({"kenya", "survey"})
