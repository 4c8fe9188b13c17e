"""Deterministic word-level tokenizer and fixed-length sequence layout.

A sequence of length S holds up to S-2 real tokens, PAD filler, and the CLS
marker at the final index:  [tok, ..., tok, PAD, ..., PAD, CLS].  A text
becomes two plain rows, its ids and its real mask (the real tokens and CLS),
which ``data.DatasetArrays`` stores as they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError

PAD, CLS, UNK = 0, 1, 2
RESERVED = ("<pad>", "<cls>", "<unk>")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def split_words(text: str) -> list[str]:
    """Lowercase and split on anything that is not a letter or digit."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    """Frozen token-to-id map with dense ids; 0/1/2 are PAD/CLS/UNK."""

    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id) + len(RESERVED)

    @classmethod
    def build(cls, texts) -> "Vocab":
        """Collect the sorted unique tokens of a corpus.  Sorting makes the
        id assignment independent of corpus order."""
        words = sorted({w for t in texts for w in split_words(t)})
        return cls.from_tokens([*RESERVED, *words])

    def id_of(self, word: str) -> int:
        return self.token_to_id.get(word, UNK)

    @classmethod
    def from_tokens(cls, tokens, source: str = "vocabulary") -> "Vocab":
        """Inverse of :meth:`tokens`: one token per id, the reserved ones
        first.  ``source`` names where the list came from in errors."""
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError(f"{source}: expected a list of token strings")
        if tuple(tokens[:len(RESERVED)]) != RESERVED:
            raise DataError(f"{source}: reserved tokens missing or reordered")
        if len(set(tokens)) != len(tokens):
            raise DataError(f"{source}: duplicate tokens")
        words = tokens[len(RESERVED):]
        return cls(token_to_id={w: i + len(RESERVED) for i, w in enumerate(words)})

    def tokens(self) -> list[str]:
        return list(RESERVED) + [w for w, _ in sorted(self.token_to_id.items(), key=lambda kv: kv[1])]


def tokenize(text: str, vocab: Vocab, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``text`` into a length-``seq_len`` sequence: its int64 ids and
    its boolean real mask, True at the positions that carry information
    (the real tokens and CLS).

    Keeps the first seq_len - 2 words (unknown words map to UNK), pads up to
    index seq_len - 2, and writes CLS at the last index.  Empty text is
    valid and yields all PADs plus CLS.
    """
    if seq_len < 2:
        raise ContractError(f"sequence length must be >= 2, got {seq_len}")
    words = split_words(text)[: seq_len - 2]
    ids = np.full(seq_len, PAD, dtype=np.int64)
    real = np.zeros(seq_len, dtype=bool)
    for i, w in enumerate(words):
        ids[i] = vocab.id_of(w)
    ids[seq_len - 1] = CLS
    real[: len(words)] = real[seq_len - 1] = True
    return ids, real


def detokenize_ids(ids: np.ndarray, real: np.ndarray, vocab: Vocab) -> list[str]:
    """Map the real-token ids of a :func:`tokenize` row back to surface
    tokens (UNK stays '<unk>')."""
    table = vocab.tokens()
    return [table[i] for i in ids[real][:-1]]
