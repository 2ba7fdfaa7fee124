"""Sentence ingestion and idf-weighted cosine similarity.

Preprocessing is deliberately minimal and fully deterministic: Unicode
lowercasing, splitting on non-alphanumeric runs, no stemming, no stopword
removal. Inverse document frequency treats each sentence as one document
and uses a natural log with no smoothing, so a token present in every
sentence contributes nothing.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError

TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

SYMMETRY_TOL = 1e-12


def tokenize(body: str) -> list[str]:
    """Lowercased alphanumeric word tokens, in order of appearance."""
    return [t.lower() for t in TOKEN_RE.findall(body)]


@dataclass(frozen=True)
class Sentence:
    id: str
    body: str

    def __post_init__(self):
        if not self.id:
            raise ParseError("sentence id must be nonempty")
        if not self.body:
            raise ParseError(f"sentence {self.id!r} has an empty body")


@dataclass(frozen=True)
class Corpus:
    """Ordered sentences; verified ones precede generated ones."""

    sentences: tuple[Sentence, ...]
    n_verified: int
    n_generated: int

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        if self.n_verified < 0 or self.n_generated < 0:
            raise ParseError("sentence counts must be nonnegative")
        if self.n_verified + self.n_generated != len(self.sentences):
            raise ParseError("verified + generated counts must cover the corpus")
        seen = set()
        for s in self.sentences:
            if s.id in seen:
                raise ParseError(f"duplicate sentence id {s.id!r}")
            seen.add(s.id)

    @classmethod
    def verified(cls, sentences):
        sentences = tuple(sentences)
        return cls(sentences, len(sentences), 0)

    @classmethod
    def with_generated(cls, verified, generated):
        verified = tuple(verified)
        generated = tuple(generated)
        return cls(verified + generated, len(verified), len(generated))

    def __len__(self):
        return len(self.sentences)

    @property
    def ids(self):
        return [s.id for s in self.sentences]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarities in [0, 1] with a unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError("similarity matrix must be square")
        if np.abs(values - values.T).max(initial=0.0) > SYMMETRY_TOL:
            raise ParameterError("similarity matrix must be symmetric")
        if np.any(values < -SYMMETRY_TOL) or np.any(values > 1 + SYMMETRY_TOL):
            raise ParameterError("similarities must lie in [0, 1]")
        if values.shape[0] and np.abs(np.diag(values) - 1.0).max() > SYMMETRY_TOL:
            raise ParameterError("similarity diagonal must be one")

    @property
    def size(self):
        return self.values.shape[0]


def _idf(corpus: Corpus) -> dict[str, float]:
    document_frequency = Counter()
    for sentence in corpus.sentences:
        for token in set(tokenize(sentence.body)):
            document_frequency[token] += 1
    n = len(corpus)
    return {t: math.log(n / df) for t, df in document_frequency.items()}


def _weights(counts: Counter, idf: dict[str, float]) -> dict[str, float]:
    return {t: c * idf.get(t, 0.0) for t, c in sorted(counts.items())}


def _norm(weights: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in weights.values()))


def _cosine(counts_a, counts_b, wa, wb, na, nb):
    # identical nonempty token multisets are fully similar; this is the
    # exact value of the cosine whenever the weight norm is positive and
    # the defined completion when every shared token has zero idf
    if counts_a == counts_b and counts_a:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    shared = sorted(set(wa) & set(wb))
    value = sum(wa[t] * wb[t] for t in shared) / (na * nb)
    return min(value, 1.0)


def idf_modified_cosine(a: Sentence, b: Sentence, corpus: Corpus) -> float:
    """Cosine of the tf-idf vectors of two sentences of the corpus.

    A sentence whose weight vector has zero norm (no tokens, or only
    tokens appearing in every sentence) has similarity zero against
    everything except itself and token-identical sentences.
    """
    ids = set(corpus.ids)
    if a.id not in ids or b.id not in ids:
        raise ParameterError("both sentences must belong to the corpus")
    if a.id == b.id:
        return 1.0
    idf = _idf(corpus)
    counts_a, counts_b = Counter(tokenize(a.body)), Counter(tokenize(b.body))
    wa, wb = _weights(counts_a, idf), _weights(counts_b, idf)
    return _cosine(counts_a, counts_b, wa, wb, _norm(wa), _norm(wb))


def build_similarity_matrix(corpus: Corpus) -> SimilarityMatrix:
    """Pairwise idf-weighted cosine similarities with an exact unit diagonal."""
    if len(corpus) == 0:
        raise ParseError("corpus is empty")
    idf = _idf(corpus)
    counts = [Counter(tokenize(s.body)) for s in corpus.sentences]
    weights = [_weights(c, idf) for c in counts]
    norms = [_norm(w) for w in weights]
    n = len(corpus)
    values = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = _cosine(
                counts[i], counts[j], weights[i], weights[j], norms[i], norms[j]
            )
    return SimilarityMatrix(values)


def read_corpus(path) -> Corpus:
    """One sentence per line, optionally prefixed ``id<TAB>``; blank lines skipped."""
    sentences = []
    auto = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if "\t" in line:
                sid, body = line.split("\t", 1)
                sid, body = sid.strip(), body.strip()
            else:
                auto += 1
                sid, body = f"s{auto}", line.strip()
            if not sid or not body:
                raise ParseError(f"{path}:{lineno}: empty id or sentence")
            sentences.append(Sentence(sid, body))
    if not sentences:
        raise ParseError(f"{path}: no sentences found")
    try:
        return Corpus.verified(sentences)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_matrix_csv(values, path):
    """Row-major CSV, no header, 17 significant digits."""
    np.savetxt(path, np.asarray(values, dtype=float), delimiter=",", fmt="%.17g")
