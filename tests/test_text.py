"""Tokenizer layout contracts: terminal CLS, truncation, padding, the vocabulary's token list."""

import numpy as np
import pytest

from sydes.errors import ContractError, DataError
from sydes.text import CLS, PAD, UNK, Vocab, detokenize_ids, split_words, tokenize


@pytest.fixture
def vocab():
    return Vocab.build(["a quick brown fox", "jumps over a lazy dog"])


class TestTokenize:
    def test_empty_text(self, vocab):
        ids, real = tokenize("", vocab, 4)
        assert ids.tolist() == [PAD, PAD, PAD, CLS]
        assert real[:-1].sum() == 0

    def test_truncation_keeps_first_s_minus_2(self, vocab):
        ids, real = tokenize("a a a a a", vocab, 4)
        a = vocab.id_of("a")
        assert ids.tolist() == [a, a, PAD, CLS]
        assert real[:-1].sum() == 2

    def test_deterministic(self, vocab):
        x, x_real = tokenize("The Quick, brown FOX!", vocab, 8)
        y, y_real = tokenize("The Quick, brown FOX!", vocab, 8)
        assert np.array_equal(x, y) and np.array_equal(x_real, y_real)

    def test_case_and_punctuation_folding(self, vocab):
        assert split_words("A Quick-Brown... fox?") == ["a", "quick", "brown", "fox"]

    def test_unknown_words_map_to_unk(self, vocab):
        ids, _ = tokenize("zebra", vocab, 4)
        assert ids[0] == UNK

    def test_cls_exactly_once_at_end(self, vocab):
        for text in ("", "a", "a quick brown fox jumps over"):
            ids, _ = tokenize(text, vocab, 6)
            assert ids[-1] == CLS
            assert (ids[:-1] == CLS).sum() == 0

    def test_padding_only_between_tokens_and_cls(self, vocab):
        ids, real = tokenize("quick fox", vocab, 8)
        span = int(real[:-1].sum())
        ids = ids.tolist()
        assert span == 2 and real[:span].all()
        assert PAD not in ids[:span]
        assert all(i == PAD for i in ids[span:-1])

    def test_min_length_enforced(self, vocab):
        with pytest.raises(ContractError):
            tokenize("x", vocab, 1)

    def test_real_mask(self, vocab):
        _, real = tokenize("quick fox", vocab, 6)
        assert real.tolist() == [True, True, False, False, False, True]

    def test_round_trip_ids(self, vocab):
        ids, real = tokenize("a quick brown fox", vocab, 8)
        words = detokenize_ids(ids, real, vocab)
        again, _ = tokenize(" ".join(words), vocab, 8)
        assert np.array_equal(ids, again)


class TestVocab:
    def test_reserved_ids_stable(self, vocab):
        assert (PAD, CLS, UNK) == (0, 1, 2)
        assert vocab.tokens()[:3] == ["<pad>", "<cls>", "<unk>"]

    def test_build_is_order_independent(self):
        a = Vocab.build(["xx yy", "zz"])
        b = Vocab.build(["zz", "yy xx"])
        assert a.token_to_id == b.token_to_id

    def test_ids_dense(self, vocab):
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(3, vocab.size))

    def test_from_tokens_round_trip(self, vocab):
        assert Vocab.from_tokens(vocab.tokens()).token_to_id == vocab.token_to_id

    def test_from_tokens_rejects_missing_reserved(self):
        with pytest.raises(DataError):
            Vocab.from_tokens(["apple", "banana", "cherry"])

    def test_from_tokens_rejects_duplicate_tokens(self):
        with pytest.raises(DataError, match="dup.ckpt: embedded vocab: duplicate tokens"):
            Vocab.from_tokens(["<pad>", "<cls>", "<unk>", "apple", "banana", "apple"],
                              "dup.ckpt: embedded vocab")
