"""Token normalization shared by validation and scoring.

A string is reduced to its set of unique lowercase ASCII alphanumeric
tokens: every other character acts as a separator, empty tokens are
dropped, and duplicates collapse. This is the token convention underlying
the Jaccard overlap metric and gold-name deduplication.

An ASCII string is tokenized by one byte-table translation and a split, at
about half the cost of the regex; any other string takes the regex over
``s.lower()``, because ``str.lower()`` maps some non-ASCII characters to
ASCII letters (the Kelvin sign ``K`` becomes ``k``).
"""

from __future__ import annotations

import re

_ASCII_TOKEN = re.compile(r"[a-z0-9]+")

# ASCII letters and digits map to their lowercase, every other byte to a
# space, so a split leaves exactly the regex's tokens.
_TABLE = bytes(
    ord(ch.lower()) if ch.isascii() and ch.isalnum() else 0x20
    for ch in map(chr, range(256))
)


def normalize_tokens(s: str) -> frozenset[str]:
    """Return the set of unique normalized tokens of ``s``.

    Tokens are runs of ASCII letters and digits, so accented letters count
    as separators (``"Enquête"`` yields ``{"enqu", "te"}``).
    """
    if s.isascii():
        return frozenset(s.encode().translate(_TABLE).decode().split())
    return frozenset(_ASCII_TOKEN.findall(s.lower()))
