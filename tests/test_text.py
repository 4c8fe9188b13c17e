"""Tokenizer layout contracts: terminal CLS, truncation, padding, vocab io."""

import numpy as np
import pytest

from sydes.errors import ContractError, DataError
from sydes.text import CLS, PAD, UNK, Vocab, detokenize_ids, split_words, tokenize


@pytest.fixture
def vocab():
    return Vocab.build(["a quick brown fox", "jumps over a lazy dog"])


class TestTokenize:
    def test_empty_text(self, vocab):
        seq = tokenize("", vocab, 4)
        assert seq.ids.tolist() == [PAD, PAD, PAD, CLS]
        assert seq.span == 0

    def test_truncation_keeps_first_s_minus_2(self, vocab):
        seq = tokenize("a a a a a", vocab, 4)
        a = vocab.id_of("a")
        assert seq.ids.tolist() == [a, a, PAD, CLS]
        assert seq.span == 2

    def test_deterministic(self, vocab):
        x = tokenize("The Quick, brown FOX!", vocab, 8)
        y = tokenize("The Quick, brown FOX!", vocab, 8)
        assert np.array_equal(x.ids, y.ids)

    def test_case_and_punctuation_folding(self, vocab):
        assert split_words("A Quick-Brown... fox?") == ["a", "quick", "brown", "fox"]

    def test_unknown_words_map_to_unk(self, vocab):
        seq = tokenize("zebra", vocab, 4)
        assert seq.ids[0] == UNK

    def test_cls_exactly_once_at_end(self, vocab):
        for text in ("", "a", "a quick brown fox jumps over"):
            seq = tokenize(text, vocab, 6)
            assert seq.ids[-1] == CLS
            assert (seq.ids[:-1] == CLS).sum() == 0

    def test_padding_only_between_tokens_and_cls(self, vocab):
        seq = tokenize("quick fox", vocab, 8)
        ids = seq.ids.tolist()
        assert PAD not in ids[: seq.span]
        assert all(i == PAD for i in ids[seq.span:-1])

    def test_min_length_enforced(self, vocab):
        with pytest.raises(ContractError):
            tokenize("x", vocab, 1)

    def test_real_mask(self, vocab):
        seq = tokenize("quick fox", vocab, 6)
        assert seq.real_mask().tolist() == [True, True, False, False, False, True]

    def test_round_trip_ids(self, vocab):
        seq = tokenize("a quick brown fox", vocab, 8)
        words = detokenize_ids(seq, vocab)
        again = tokenize(" ".join(words), vocab, 8)
        assert np.array_equal(seq.ids, again.ids)


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

    def test_save_load_round_trip(self, vocab, tmp_path):
        path = str(tmp_path / "vocab.txt")
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.token_to_id == vocab.token_to_id

    def test_load_rejects_missing_reserved(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("apple\nbanana\ncherry\n")
        with pytest.raises(DataError):
            Vocab.load(str(path))

    def test_load_rejects_duplicate_tokens(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("<pad>\n<cls>\n<unk>\napple\nbanana\napple\n")
        with pytest.raises(DataError, match="dup.txt"):
            Vocab.load(str(path))
