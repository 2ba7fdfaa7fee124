"""Sentence ingestion and idf-weighted cosine similarity.

Preprocessing is deliberately minimal and fully deterministic: Unicode
lowercasing, splitting on non-alphanumeric runs, no stemming, no stopword
removal. Inverse document frequency treats each sentence as one document
and uses a natural log with no smoothing, so a token present in every
sentence contributes nothing.

Each weight norm and each pair's dot product is a plain left-to-right
sum of doubles over the sentence's tokens in sorted order, starting at
0.0. It is written as an explicit loop, not builtin ``sum`` (compensated
from Python 3.12 on), ``math.fsum`` or ``np.dot``, so the matrix has the
same bits on every supported Python; ``tests/fixtures/similarity11.csv``
pins them exactly.

``build_similarity_matrix`` fills each row with one comprehension over
the later sentences. Each sentence record carries a ``frozenset`` of its
tokens, and a pair whose sets are disjoint is 0.0 from that one C-level
test, with no Python call and no dot loop: the loop would add nothing and
the quotient would be the same 0.0, so the skip is bit-identical. The
records hold one string object per distinct token of the corpus, and
each sentence's token counts are dropped as soon as its record is built.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, all_near, all_within, real_array

TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

SYMMETRY_TOL = 1e-12

# rows compared per step of the symmetry check; its temporary is at most
# this many rows of the matrix
SYMMETRY_BLOCK_ROWS = 64


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
    """Ordered sentences with unique ids."""

    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        seen = set()
        for s in self.sentences:
            if s.id in seen:
                raise ParseError(f"duplicate sentence id {s.id!r}")
            seen.add(s.id)

    @classmethod
    def verified(cls, sentences):
        """The corpus of ``sentences``, from any iterable."""
        return cls(sentences)

    def __len__(self):
        return len(self.sentences)

    @property
    def ids(self):
        return [s.id for s in self.sentences]


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric pairwise similarities in [0, 1] with a unit diagonal."""

    values: np.ndarray

    def __post_init__(self):
        values = real_array(self.values, "similarities", ParameterError)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParameterError("similarity matrix must be square")
        for start in range(0, values.shape[0], SYMMETRY_BLOCK_ROWS):
            stop = start + SYMMETRY_BLOCK_ROWS
            # rows start:stop right of the diagonal against their mirror image
            asymmetry = values[start:stop, start:] - values[start:, start:stop].T
            if not all_within(asymmetry, -SYMMETRY_TOL, SYMMETRY_TOL):
                raise ParameterError("similarity matrix must be symmetric")
        if not all_within(values, -SYMMETRY_TOL, 1 + SYMMETRY_TOL):
            raise ParameterError("similarities must lie in [0, 1]")
        if not all_near(np.diag(values), 1.0, SYMMETRY_TOL):
            raise ParameterError("similarity diagonal must be one")

    @property
    def size(self):
        return self.values.shape[0]


def _idf(documents) -> dict[str, float]:
    """Natural-log idf of each token; each of ``documents`` holds its distinct tokens."""
    document_frequency = Counter()
    for tokens in documents:
        document_frequency.update(tokens)
    return {t: math.log(len(documents) / df) for t, df in document_frequency.items()}


def _record(counts: Counter, idf: dict, groups: dict) -> tuple[int | None, frozenset, dict, float]:
    """``(multiset id, token set, tf-idf weights in token order, norm)`` of one sentence.

    ``counts`` holds the sentence's token counts. Sentences with the same
    token multiset share an id from ``groups``, numbered in the order they
    are first recorded; a token-free sentence has id ``None``.
    """
    items = sorted(counts.items())
    group = groups.setdefault(tuple(items), len(groups)) if items else None
    # a token seen once reuses the idf's float object, with the same bits
    weights = {t: idf[t] if c == 1 else c * idf[t] for t, c in items}
    squares = 0.0
    for w in weights.values():
        squares += w * w
    return group, frozenset(weights), weights, math.sqrt(squares)


def _records(corpus: Corpus) -> list[tuple[int | None, frozenset, dict, float]]:
    """The record of each sentence of the corpus, in corpus order.

    Every token is interned through ``vocabulary``, so the records share
    one string object per distinct token. Each sentence's counts are
    released once its record is built.
    """
    vocabulary = {}
    counts = []
    for s in corpus.sentences:
        tokens = tokenize(s.body)
        counts.append(Counter(map(vocabulary.setdefault, tokens, tokens)))
    idf = _idf([sentence_counts.keys() for sentence_counts in counts])
    groups = {}
    records = []
    for i, sentence_counts in enumerate(counts):
        counts[i] = None
        records.append(_record(sentence_counts, idf, groups))
    return records


def _cosine(a, b):
    """Cosine of two records that share a token; callers test the token sets first."""
    (group_a, _, wa, na), (group_b, _, wb, nb) = a, b
    # identical nonempty token multisets are fully similar; this is the
    # exact value of the cosine whenever the weight norm is positive and
    # the defined completion when every shared token has zero idf
    if group_a is not None and group_a == group_b:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    # wa is in token order, so this adds over the sorted shared tokens
    dot = 0.0
    for t, w in wa.items():
        if t in wb:
            dot += w * wb[t]
    return min(dot / (na * nb), 1.0)


def idf_modified_cosine(a: Sentence, b: Sentence, corpus: Corpus) -> float:
    """Cosine of the tf-idf vectors of two sentences of the corpus.

    Each argument must equal the corpus's sentence with its id. A sentence
    whose weight vector has zero norm (no tokens, or only tokens appearing
    in every sentence) has similarity zero against everything except
    itself and token-identical sentences.

    Each call still tokenizes the whole corpus for the idf, so it costs
    O(corpus tokens); to score many pairs, use ``build_similarity_matrix``,
    whose entries are the same bits.
    """
    if a not in corpus.sentences or b not in corpus.sentences:
        raise ParameterError("both sentences must belong to the corpus")
    if a.id == b.id:
        return 1.0
    idf = _idf([set(tokenize(s.body)) for s in corpus.sentences])
    groups = {}
    ra, rb = (_record(Counter(tokenize(s.body)), idf, groups) for s in (a, b))
    return 0.0 if ra[1].isdisjoint(rb[1]) else _cosine(ra, rb)


def build_similarity_matrix(corpus: Corpus) -> SimilarityMatrix:
    """Pairwise idf-weighted cosine similarities with an exact unit diagonal."""
    if len(corpus) == 0:
        raise ParseError("corpus is empty")
    records = _records(corpus)
    # zipping the sets from a list of their own is faster than unpacking
    # each record in the comprehension
    token_sets = [record[1] for record in records]
    values = np.eye(len(records))
    for i, a in enumerate(records):
        disjoint = a[1].isdisjoint
        row = values[i, i + 1 :]
        row[:] = [0.0 if disjoint(tokens) else _cosine(a, b)
                  for tokens, b in zip(token_sets[i + 1 :], records[i + 1 :])]
        # the column copies the row's array, not the list a second time
        values[i + 1 :, i] = row
    # free the records before validation allocates its row blocks
    del records, token_sets
    return SimilarityMatrix(values)


def read_corpus(path) -> Corpus:
    """One sentence per UTF-8 line, optionally prefixed ``id<TAB>``; blank lines skipped.

    A leading byte-order mark is dropped.
    """
    sentences = []
    auto = 0
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = list(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, start=1):
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
