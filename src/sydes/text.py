"""Deterministic word-level tokenizer and fixed-length sequence layout.

A sequence of length S holds up to S-2 real tokens, PAD filler, and the CLS
marker at the final index:  [tok, ..., tok, PAD, ..., PAD, CLS].
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

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("# one token per line; id = index among non-comment lines\n")
            f.write(f"# ids 0..2 are reserved: {' '.join(RESERVED)}\n")
            for tok in self.tokens():
                f.write(tok + "\n")

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

    @classmethod
    def load(cls, path: str) -> "Vocab":
        tokens = []
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if line.startswith("#") or not line:
                    continue
                tokens.append(line)
        return cls.from_tokens(tokens, path)

    def tokens(self) -> list[str]:
        return list(RESERVED) + [w for w, _ in sorted(self.token_to_id.items(), key=lambda kv: kv[1])]


@dataclass(frozen=True)
class TextSequence:
    """Fixed-length id sequence; index S-1 always holds CLS and ``span`` is
    the count of real (non-pad, non-CLS) tokens at the front."""

    ids: np.ndarray
    span: int

    @property
    def length(self) -> int:
        return self.ids.shape[0]

    def real_mask(self) -> np.ndarray:
        """Boolean mask of positions carrying information (real tokens and
        the CLS marker)."""
        mask = np.zeros(self.length, dtype=bool)
        mask[: self.span] = True
        mask[-1] = True
        return mask


def tokenize(text: str, vocab: Vocab, seq_len: int) -> TextSequence:
    """Encode ``text`` into a length-``seq_len`` sequence.

    Keeps the first seq_len - 2 words (unknown words map to UNK), pads up to
    index seq_len - 2, and writes CLS at the last index.  Empty text is
    valid and yields all PADs plus CLS.
    """
    if seq_len < 2:
        raise ContractError(f"sequence length must be >= 2, got {seq_len}")
    words = split_words(text)[: seq_len - 2]
    ids = np.full(seq_len, PAD, dtype=np.int64)
    for i, w in enumerate(words):
        ids[i] = vocab.id_of(w)
    ids[seq_len - 1] = CLS
    return TextSequence(ids=ids, span=len(words))


def detokenize_ids(seq: TextSequence, vocab: Vocab) -> list[str]:
    """Map real-token ids back to surface tokens (UNK stays '<unk>')."""
    table = vocab.tokens()
    return [table[i] for i in seq.ids[: seq.span]]
