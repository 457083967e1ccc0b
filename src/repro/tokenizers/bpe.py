"""Byte-level byte-pair-encoding tokenizer (the paper's "HF" tokenizer).

Implements the GPT-2 / HuggingFace-style algorithm from scratch:

* pre-tokenization folds each leading space into the following word using
  the ``Ġ`` marker, so whitespace is never lost;
* the base alphabet is the 256 byte values (no character can ever be OOV);
* merges are learned greedily by highest pair frequency over the word-type
  histogram;
* encoding applies merges in learned rank order.

Round-trips are exact for any UTF-8 input.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .base import SPECIAL_TOKENS, Tokenizer

__all__ = ["BPETokenizer"]

_SPACE_MARKER = "Ġ"  # 'Ġ', as in GPT-2


def _pretokenize(text: str) -> list[str]:
    """Split text into words, folding one leading space into each word."""
    out: list[str] = []
    word = ""
    pending_space = False
    for ch in text:
        if ch == " ":
            if word:
                out.append(word)
                word = ""
            if pending_space:
                out.append(_SPACE_MARKER)  # runs of spaces become their own words
            pending_space = True
        elif ch.isspace():  # newlines/tabs are standalone words
            if pending_space:
                out.append(_SPACE_MARKER)
                pending_space = False
            if word:
                out.append(word)
                word = ""
            out.append(ch)
        else:
            if pending_space:
                word = _SPACE_MARKER
                pending_space = False
            word += ch
    if pending_space:
        out.append(_SPACE_MARKER)
    if word:
        out.append(word)
    return out


def _word_to_bytes(word: str) -> tuple[int, ...]:
    """Map a pre-token to its byte sequence (marker is re-expanded later)."""
    return tuple(word.replace(_SPACE_MARKER, " ").encode("utf-8"))


class BPETokenizer(Tokenizer):
    """Trainable byte-level BPE tokenizer.

    Examples
    --------
    >>> tok = BPETokenizer().train(["the cat sat on the mat"] * 10, 300)
    >>> tok.decode(tok.encode("the cat"))
    'the cat'
    """

    family = "hf"

    def __init__(self) -> None:
        super().__init__()
        self.merges: dict[tuple[int, int], int] = {}  # pair -> merged id
        self.merge_ranks: dict[tuple[int, int], int] = {}
        self._id_to_bytes: dict[int, bytes] = {}
        self._num_special = len(SPECIAL_TOKENS)
        #: ``encode``'s word -> ids memo: a corpus repeats few distinct
        #: words many times.  ``train`` clears it, and pickles leave it out.
        self._word_ids: dict[str, list[int]] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_word_ids"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._word_ids = {}

    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return self._num_special + 256 + len(self.merges)

    @property
    def byte_offset(self) -> int:
        """Id of byte 0."""
        return self._num_special

    def train(self, texts: list[str], vocab_size: int) -> "BPETokenizer":
        """Learn merges until ``vocab_size`` is reached (or merges run out)."""
        base = self._num_special + 256
        if vocab_size < base:
            raise ValueError(
                f"vocab_size must be >= {base} (specials + bytes): {vocab_size}")
        # Word-type histogram: BPE statistics are over types × frequency.
        word_freq = Counter()
        for text in texts:
            word_freq.update(_pretokenize(text))
        words: list[list[int]] = []
        freqs: list[int] = []
        for w, f in word_freq.items():
            words.append([b + self.byte_offset for b in _word_to_bytes(w)])
            freqs.append(f)

        self.merges.clear()
        self.merge_ranks.clear()
        self._word_ids.clear()
        self._id_to_bytes = {self.byte_offset + b: bytes([b]) for b in range(256)}

        next_id = base
        while next_id < vocab_size:
            pair_counts: Counter = Counter()
            for seq, f in zip(words, freqs):
                for a, b in zip(seq, seq[1:]):
                    pair_counts[(a, b)] += f
            if not pair_counts:
                break
            # Deterministic tie-break: highest count, then smallest ids.
            best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            if pair_counts[best] < 2:
                break
            self.merges[best] = next_id
            self.merge_ranks[best] = len(self.merge_ranks)
            self._id_to_bytes[next_id] = (self._id_to_bytes[best[0]] +
                                          self._id_to_bytes[best[1]])
            for i, seq in enumerate(words):
                words[i] = self._apply_merge(seq, best, next_id)
            next_id += 1

        self._trained = True
        return self

    @staticmethod
    def _apply_merge(seq: list[int], pair: tuple[int, int], new_id: int
                     ) -> list[int]:
        if len(seq) < 2:
            return seq
        out: list[int] = []
        i = 0
        n = len(seq)
        while i < n:
            if i < n - 1 and seq[i] == pair[0] and seq[i + 1] == pair[1]:
                out.append(new_id)
                i += 2
            else:
                out.append(seq[i])
                i += 1
        return out

    # ------------------------------------------------------------------
    def _encode_word(self, word: str) -> list[int]:
        seq = [b + self.byte_offset for b in _word_to_bytes(word)]
        # Iteratively merge the lowest-rank pair present (HF algorithm).
        while len(seq) > 1:
            best_rank = None
            best_idx = -1
            for i, pair in enumerate(zip(seq, seq[1:])):
                rank = self.merge_ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_idx = i
            if best_rank is None:
                break
            pair = (seq[best_idx], seq[best_idx + 1])
            seq = self._apply_merge(seq, pair, self.merges[pair])
        return seq

    def encode(self, text: str, add_special: bool = False) -> np.ndarray:
        self._require_trained()
        ids: list[int] = []
        if add_special:
            ids.append(SPECIAL_TOKENS["<bos>"])
        memo = self._word_ids
        for word in _pretokenize(text):
            word_ids = memo.get(word)
            if word_ids is None:
                word_ids = memo[word] = self._encode_word(word)
            ids.extend(word_ids)
        if add_special:
            ids.append(SPECIAL_TOKENS["<eos>"])
        return np.array(ids, dtype=np.int64)

    def decode(self, ids: np.ndarray) -> str:
        self._require_trained()
        specials = set(SPECIAL_TOKENS.values())
        raw = b"".join(self._id_to_bytes[int(i)] for i in np.asarray(ids).ravel()
                       if int(i) not in specials)
        return raw.decode("utf-8", errors="replace")

    def token_strings(self) -> dict[int, str]:
        """Human-readable token table (for analysis / debugging)."""
        out = {v: k for k, v in SPECIAL_TOKENS.items()}
        for tid, bs in self._id_to_bytes.items():
            out[tid] = bs.decode("utf-8", errors="replace").replace(" ", _SPACE_MARKER)
        return out
