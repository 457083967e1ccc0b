"""Unigram language-model tokenizer (the paper's "SPM" tokenizer).

Implements the SentencePiece unigram algorithm from scratch:

* text is normalized with the ``▁`` whitespace marker (spaces become part
  of the following piece, as SentencePiece does);
* the seed vocabulary is all frequent substrings up to a maximum piece
  length, plus every single character for loss-free fallback;
* EM iterations alternate Viterbi segmentation (E-step, hard counts) with
  maximum-likelihood re-estimation, pruning the least-useful pieces until
  the target vocabulary size is reached;
* encoding is exact Viterbi over piece log-probabilities.

The paper notes SPM has "fine-grained control over subword tokenization";
the practical difference reproduced here is that unigram segmentations
favour longer, morphologically coherent pieces while BPE merges are purely
frequency-greedy.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .base import SPECIAL_TOKENS, Tokenizer

__all__ = ["UnigramTokenizer"]

_SPACE_MARKER = "▁"  # '▁'


def _normalize(text: str) -> str:
    return _SPACE_MARKER + text.replace(" ", _SPACE_MARKER)


def _denormalize(text: str) -> str:
    return text.replace(_SPACE_MARKER, " ").lstrip(" ")


def _unk_penalty(log_p: dict[str, float]) -> float:
    """Log-prob of an unknown character: 10 nats below the rarest piece."""
    return min(log_p.values(), default=-20.0) - 10.0


class UnigramTokenizer(Tokenizer):
    """Trainable unigram-LM tokenizer with Viterbi encoding.

    Examples
    --------
    >>> tok = UnigramTokenizer().train(["band gap of GaAs"] * 20, 300)
    >>> tok.decode(tok.encode("band gap"))
    'band gap'
    """

    family = "spm"

    def __init__(self, max_piece_len: int = 8, em_iterations: int = 3,
                 prune_fraction: float = 0.25):
        super().__init__()
        self.max_piece_len = max_piece_len
        self.em_iterations = em_iterations
        self.prune_fraction = prune_fraction
        self.pieces: dict[str, int] = {}       # piece -> id
        self.log_probs: dict[str, float] = {}  # piece -> log p
        self._id_to_piece: dict[int, str] = {}

    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return len(SPECIAL_TOKENS) + len(self.pieces)

    def train(self, texts: list[str], vocab_size: int) -> "UnigramTokenizer":
        target = vocab_size - len(SPECIAL_TOKENS)
        if target < 1:
            raise ValueError(f"vocab_size too small: {vocab_size}")
        corpus = [_normalize(t) for t in texts if t]
        if not corpus:
            raise ValueError("cannot train on an empty corpus")

        # Seed: all substrings (<= max_piece_len) with freq >= 2, plus chars.
        sub_counts: Counter = Counter()
        char_set: set[str] = set()
        for line in corpus:
            char_set.update(line)
            n = len(line)
            for i in range(n):
                for j in range(i + 1, min(i + 1 + self.max_piece_len, n + 1)):
                    sub_counts[line[i:j]] += 1
        probs: dict[str, float] = {}
        for piece, c in sub_counts.items():
            if c >= 2 or len(piece) == 1:
                probs[piece] = float(c * len(piece))
        for ch in char_set:
            probs.setdefault(ch, 1.0)
        self._renormalize(probs)

        # EM with pruning: hard-count E-step via Viterbi, then drop the
        # lowest-probability multi-char pieces until the target is reached.
        while True:
            for _ in range(self.em_iterations):
                # One log-prob table (and unknown-character penalty) per
                # EM pass, shared by every line's segmentation.
                log_p = {k: float(np.log(v)) for k, v in probs.items()}
                unk = _unk_penalty(log_p)
                counts: Counter = Counter()
                for line in corpus:
                    for piece in self._viterbi(line, log_p, unk):
                        counts[piece] += 1
                new_probs = {p: float(counts.get(p, 0)) + 1e-6 for p in probs}
                probs = new_probs
                self._renormalize(probs)
            if len(probs) <= target:
                break
            multi = sorted((p for p in probs if len(p) > 1),
                           key=lambda p: probs[p])
            n_prunable = len(probs) - target
            n_drop = max(1, min(n_prunable,
                                int(len(multi) * self.prune_fraction)))
            if not multi:
                break
            for p in multi[:n_drop]:
                del probs[p]
            self._renormalize(probs)

        self.pieces = {}
        self.log_probs = {}
        next_id = len(SPECIAL_TOKENS)
        for piece in sorted(probs, key=lambda p: (-probs[p], p)):
            self.pieces[piece] = next_id
            self.log_probs[piece] = float(np.log(probs[piece]))
            next_id += 1
        self._id_to_piece = {i: p for p, i in self.pieces.items()}
        self._trained = True
        return self

    @staticmethod
    def _renormalize(probs: dict[str, float]) -> None:
        total = sum(probs.values())
        for k in probs:
            probs[k] /= total

    def _viterbi(self, line: str, log_p: dict[str, float] | None = None,
                 unk_penalty: float | None = None) -> list[str]:
        """Best segmentation of ``line`` under a piece log-prob table.

        ``log_p`` defaults to the trained :attr:`log_probs`; training
        passes the current EM pass's table and its ``unk_penalty``,
        built once per pass rather than once per line.
        """
        if log_p is None:
            log_p = self.log_probs
        if unk_penalty is None:
            unk_penalty = _unk_penalty(log_p)
        n = len(line)
        best = [-np.inf] * (n + 1)
        best[0] = 0.0
        back = [0] * (n + 1)
        for i in range(1, n + 1):
            for j in range(max(0, i - self.max_piece_len), i):
                piece = line[j:i]
                lp = log_p.get(piece)
                if lp is None:
                    if i - j == 1:
                        lp = unk_penalty  # unknown character fallback
                    else:
                        continue
                if best[j] + lp > best[i]:
                    best[i] = best[j] + lp
                    back[i] = j
        pieces: list[str] = []
        i = n
        while i > 0:
            j = back[i]
            pieces.append(line[j:i])
            i = j
        return pieces[::-1]

    # ------------------------------------------------------------------
    def encode(self, text: str, add_special: bool = False) -> np.ndarray:
        self._require_trained()
        ids: list[int] = []
        if add_special:
            ids.append(SPECIAL_TOKENS["<bos>"])
        if text:
            for piece in self._viterbi(_normalize(text)):
                ids.append(self.pieces.get(piece, SPECIAL_TOKENS["<unk>"]))
        if add_special:
            ids.append(SPECIAL_TOKENS["<eos>"])
        return np.array(ids, dtype=np.int64)

    def decode(self, ids: np.ndarray) -> str:
        self._require_trained()
        unk = SPECIAL_TOKENS["<unk>"]
        specials = set(SPECIAL_TOKENS.values())
        parts: list[str] = []
        for i in np.asarray(ids).ravel():
            i = int(i)
            if i in specials:
                if i == unk:
                    parts.append("�")
                continue
            parts.append(self._id_to_piece[i])
        return _denormalize("".join(parts))

    def token_strings(self) -> dict[int, str]:
        out = {v: k for k, v in SPECIAL_TOKENS.items()}
        out.update(self._id_to_piece)
        return out
