"""Token normalization shared by validation and scoring.

A string is reduced to its set of unique lowercase ASCII alphanumeric
tokens: every other character acts as a separator, empty tokens are
dropped, and duplicates collapse. This is the token convention underlying
the Jaccard overlap metric and gold-name deduplication.
"""

from __future__ import annotations

import re

_ASCII_TOKEN = re.compile(r"[a-z0-9]+")


def normalize_tokens(s: str) -> frozenset[str]:
    """Return the set of unique normalized tokens of ``s``.

    Tokens are runs of ASCII letters and digits, so accented letters count
    as separators (``"Enquête"`` yields ``{"enqu", "te"}``).
    """
    return frozenset(_ASCII_TOKEN.findall(s.lower()))
