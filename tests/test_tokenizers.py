"""Tests for the BPE (HF) and unigram (SPM) tokenizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenizers import (SPECIAL_TOKENS, BPETokenizer, UnigramTokenizer,
                              build_tokenizer)

CORPUS = [
    "the band gap of GaAs is 1.42 eV at room temperature",
    "perovskite solar cells show great promise for energy",
    "the band gap of Si is 1.12 eV and depends on strain",
    "LiFePO4 is a common cathode material for batteries",
    "density functional theory predicts the band structure",
    "we report synthesis of novel two dimensional materials",
] * 8


@pytest.fixture(scope="module")
def bpe():
    return BPETokenizer().train(CORPUS, 320)


@pytest.fixture(scope="module")
def spm():
    return UnigramTokenizer().train(CORPUS, 320)


class TestBPE:
    def test_roundtrip_in_domain(self, bpe):
        for text in ["the band gap", "solar cells", "GaAs is 1.42 eV"]:
            assert bpe.decode(bpe.encode(text)) == text

    def test_roundtrip_unseen_bytes(self, bpe):
        """Byte fallback: any UTF-8 text round-trips even if unseen."""
        for text in ["Zr3(PO4)2", "αβγ-phase", "Ω resistance", "tab\there"]:
            assert bpe.decode(bpe.encode(text)) == text

    def test_roundtrip_multiple_spaces(self, bpe):
        text = "a  b   c"
        assert bpe.decode(bpe.encode(text)) == text

    def test_special_tokens_added(self, bpe):
        ids = bpe.encode("band gap", add_special=True)
        assert ids[0] == SPECIAL_TOKENS["<bos>"]
        assert ids[-1] == SPECIAL_TOKENS["<eos>"]
        assert bpe.decode(ids) == "band gap"

    def test_vocab_size_respected(self, bpe):
        assert bpe.vocab_size <= 320
        assert bpe.vocab_size > 260  # learned some merges

    def test_compression_improves_with_vocab(self):
        small = BPETokenizer().train(CORPUS, 262)
        large = BPETokenizer().train(CORPUS, 400)
        text = " ".join(CORPUS[:4])
        assert len(large.encode(text)) < len(small.encode(text))

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            BPETokenizer().encode("x")

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            BPETokenizer().train(CORPUS, 100)

    def test_deterministic_training(self):
        a = BPETokenizer().train(CORPUS, 300)
        b = BPETokenizer().train(CORPUS, 300)
        text = CORPUS[0]
        np.testing.assert_array_equal(a.encode(text), b.encode(text))

    def test_frequent_word_becomes_single_token(self, bpe):
        # 'the' appears constantly; with 64 merges it should be 1-2 tokens.
        assert len(bpe.encode("the")) <= 2

    def test_stats(self, bpe):
        s = bpe.stats(CORPUS[:6])
        assert s.total_tokens > 0
        assert s.chars_per_token > 1.0

    def test_token_strings_cover_vocab(self, bpe):
        table = bpe.token_strings()
        assert len(table) == bpe.vocab_size

    def test_word_memo_matches_unmemoized_encoding(self):
        from repro.tokenizers.bpe import _pretokenize
        tok = BPETokenizer().train(CORPUS, 320)
        for text in CORPUS[:6] + ["unseen  words\tand the band gap"]:
            expected = [i for word in _pretokenize(text)
                        for i in tok._encode_word(word)]
            assert tok.encode(text).tolist() == expected
            assert tok.encode(text).tolist() == expected  # memo hits

    def test_retraining_clears_word_memo(self):
        tok = BPETokenizer().train(CORPUS, 262)
        before = tok.encode(CORPUS[0]).tolist()
        tok.train(CORPUS, 400)
        after = tok.encode(CORPUS[0]).tolist()
        assert after != before
        assert after == BPETokenizer().train(CORPUS, 400).encode(
            CORPUS[0]).tolist()

    def test_pickle_leaves_word_memo_out(self):
        import pickle
        tok = BPETokenizer().train(CORPUS, 320)
        before = pickle.dumps(tok)
        tok.encode(" ".join(CORPUS))
        assert pickle.dumps(tok) == before
        clone = pickle.loads(before)
        assert clone.encode(CORPUS[1]).tolist() \
            == tok.encode(CORPUS[1]).tolist()

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=40))
    def test_property_roundtrip_any_utf8(self, text):
        tok = BPETokenizer().train(["seed text for training"], 262)
        assert tok.decode(tok.encode(text)) == text


class TestUnigram:
    def test_roundtrip_in_domain(self, spm):
        for text in ["the band gap", "solar cells", "cathode material"]:
            assert spm.decode(spm.encode(text)) == text

    def test_unknown_char_maps_to_unk(self, spm):
        ids = spm.encode("Ω")
        assert SPECIAL_TOKENS["<unk>"] in ids

    def test_known_chars_never_unk(self, spm):
        ids = spm.encode("band structure theory")
        assert SPECIAL_TOKENS["<unk>"] not in ids

    def test_vocab_size_close_to_target(self, spm):
        assert spm.vocab_size <= 330
        assert spm.vocab_size >= 100

    def test_special_tokens(self, spm):
        ids = spm.encode("band", add_special=True)
        assert ids[0] == SPECIAL_TOKENS["<bos>"] and ids[-1] == SPECIAL_TOKENS["<eos>"]

    def test_viterbi_picks_high_probability_segmentation(self, spm):
        """Frequent full words should be segmented as few pieces."""
        n_band = len(spm.encode("band"))
        n_rare = len(spm.encode("bnad"))  # scrambled, must fragment
        assert n_band <= n_rare

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            UnigramTokenizer().encode("x")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            UnigramTokenizer().train([], 300)

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            UnigramTokenizer().train(CORPUS, 2)

    def test_empty_string_encodes_empty(self, spm):
        assert len(spm.encode("")) == 0

    def test_deterministic_training(self):
        a = UnigramTokenizer().train(CORPUS, 300)
        b = UnigramTokenizer().train(CORPUS, 300)
        np.testing.assert_array_equal(a.encode(CORPUS[0]), b.encode(CORPUS[0]))

    def test_spm_vs_bpe_token_counts_differ(self, bpe, spm):
        """Different algorithms segment differently (basis of Fig 13 note:
        losses across tokenizers are incomparable)."""
        text = " ".join(CORPUS[:6])
        assert len(bpe.encode(text)) != len(spm.encode(text))


class TestFactoryAndCorpus:
    def test_build_tokenizer(self):
        assert isinstance(build_tokenizer("hf"), BPETokenizer)
        assert isinstance(build_tokenizer("spm"), UnigramTokenizer)
        with pytest.raises(ValueError):
            build_tokenizer("wordpiece")

    def test_family_labels(self):
        assert BPETokenizer.family == "hf"
        assert UnigramTokenizer.family == "spm"

    def test_encode_corpus_adds_specials(self, bpe):
        docs = bpe.encode_corpus(CORPUS[:3])
        assert len(docs) == 3
        for d in docs:
            assert d[0] == SPECIAL_TOKENS["<bos>"]
            assert d[-1] == SPECIAL_TOKENS["<eos>"]
