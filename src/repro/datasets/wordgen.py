"""Deterministic pseudo-English word synthesis.

The paper's datasets are natural-language corpora (bible words, painting
titles).  Those files are not shipped here, so the generators in this
package synthesize corpora with the *same statistics that drive the
evaluation*: word/title counts, length ranges, mean lengths, and a
Zipf-like skew in letter/q-gram frequencies.

This module is the shared machinery: a syllable model whose onset/vowel/
coda inventories follow rough English frequencies, giving words whose
3-grams are heavily shared — exactly the property that makes q-gram
indexes behave like they do on real text.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

# Weighted inventories: (fragment, weight).  Weights approximate English
# onset/nucleus/coda frequencies; precision does not matter, skew does.
_ONSETS: Sequence[tuple[str, int]] = (
    ("", 10), ("b", 5), ("c", 6), ("d", 5), ("f", 4), ("g", 4), ("h", 6),
    ("j", 1), ("k", 2), ("l", 5), ("m", 6), ("n", 5), ("p", 5), ("r", 6),
    ("s", 9), ("t", 10), ("v", 2), ("w", 4), ("y", 1), ("z", 1),
    ("th", 7), ("sh", 3), ("ch", 3), ("wh", 2), ("st", 3), ("pr", 2),
    ("tr", 2), ("br", 2), ("gr", 2), ("fr", 2), ("pl", 1), ("cl", 1),
    ("str", 1),
)

_VOWELS: Sequence[tuple[str, int]] = (
    ("a", 10), ("e", 13), ("i", 9), ("o", 9), ("u", 4),
    ("ea", 2), ("ou", 2), ("ai", 1), ("ee", 2), ("oo", 1), ("io", 1),
)

_CODAS: Sequence[tuple[str, int]] = (
    ("", 8), ("b", 1), ("d", 4), ("g", 2), ("k", 2), ("l", 4), ("m", 3),
    ("n", 7), ("p", 2), ("r", 6), ("s", 7), ("t", 7), ("x", 1),
    ("nd", 3), ("ng", 3), ("nt", 2), ("st", 2), ("th", 2), ("rd", 1),
    ("ss", 1), ("ck", 1), ("ght", 1),
)


def _expand(inventory: Sequence[tuple[str, int]]) -> list[str]:
    """Flatten a weighted inventory into a sampling list."""
    flat: list[str] = []
    for fragment, weight in inventory:
        flat.extend([fragment] * weight)
    return flat


class WordGenerator:
    """Deterministic syllable-based word factory."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self._onsets = _expand(_ONSETS)
        self._vowels = _expand(_VOWELS)
        self._codas = _expand(_CODAS)

    def syllable(self) -> str:
        """One onset + nucleus + coda syllable."""
        return (
            self.rng.choice(self._onsets)
            + self.rng.choice(self._vowels)
            + self.rng.choice(self._codas)
        )

    def word(self, length: int) -> str:
        """A pronounceable word of exactly ``length`` characters.

        Syllables are concatenated until the target is reached, then the
        word is trimmed; too-short results are padded with fresh
        syllables, so the exact length always holds.
        """
        if length < 1:
            raise ValueError(f"word length must be >= 1, got {length}")
        parts: list[str] = []
        size = 0
        while size < length:
            syllable = self.syllable()
            if not syllable:
                continue
            parts.append(syllable)
            size += len(syllable)
        return "".join(parts)[:length]

    def unique_words(self, lengths: Sequence[int]) -> list[str]:
        """Distinct words, one per requested length (order preserved).

        Retries on collision; with syllable entropy far above the corpus
        sizes used here, a handful of retries suffices.
        """
        seen: set[str] = set()
        words: list[str] = []
        for length in lengths:
            for attempt in range(1000):
                candidate = self.word(length)
                if candidate not in seen:
                    seen.add(candidate)
                    words.append(candidate)
                    break
            else:  # pragma: no cover - astronomically unlikely
                raise RuntimeError(
                    f"could not generate a fresh word of length {length}"
                )
        return words


def sample_lengths(
    rng: random.Random,
    count: int,
    weights: Sequence[tuple[int, float]],
) -> list[int]:
    """Sample ``count`` lengths from a discrete ``(length, weight)`` law."""
    lengths = [length for length, __ in weights]
    probabilities = [weight for __, weight in weights]
    return rng.choices(lengths, weights=probabilities, k=count)


def mean_length(words: Sequence[str]) -> float:
    """Average string length of a corpus (diagnostics and tests)."""
    if not words:
        return 0.0
    return sum(len(w) for w in words) / len(words)
