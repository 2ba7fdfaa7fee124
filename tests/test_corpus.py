"""Tokenization and similarity-matrix behaviour, pinned by an independent oracle."""

import builtins
import random
import sys
from collections import Counter

import numpy as np
import pytest

from oracles import BUILTIN_SUM, compensated_sum, oracle_similarity_matrix

from robust_lexrank import (
    Corpus,
    Sentence,
    SimilarityMatrix,
    build_similarity_matrix,
    idf_modified_cosine,
    read_corpus,
    tokenize,
)
from robust_lexrank import corpus as corpus_module
from robust_lexrank.corpus import SYMMETRY_BLOCK_ROWS, _record, _records, write_matrix_csv
from robust_lexrank.errors import ParameterError, ParseError


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("Iraq refuses to back down.") == ["iraq", "refuses", "to", "back", "down"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_stripping(self):
        assert tokenize("UNSCOM, in charge") == ["unscom", "in", "charge"]

    def test_numbers_kept(self):
        assert tokenize("since the year 1990") == ["since", "the", "year", "1990"]

    def test_unicode_quotes_and_apostrophes(self):
        assert tokenize("Iraq’s “commitments”") == ["iraq", "s", "commitments"]


def two_sentence_corpus(a, b):
    return Corpus.verified([Sentence("a", a), Sentence("b", b)])


class TestIdfModifiedCosine:
    def test_self_similarity(self, cluster_corpus):
        for s in cluster_corpus.sentences:
            assert idf_modified_cosine(s, s, cluster_corpus) == 1.0

    def test_disjoint_tokens(self):
        corpus = two_sentence_corpus("alpha beta", "gamma delta")
        a, b = corpus.sentences
        assert idf_modified_cosine(a, b, corpus) == 0.0

    def test_fixture_pair_matches_oracle(self, cluster_corpus, fixture_similarity):
        a = cluster_corpus.sentences[0]  # d1s1
        b = cluster_corpus.sentences[7]  # d4s1
        value = idf_modified_cosine(a, b, cluster_corpus)
        assert value == pytest.approx(fixture_similarity[0, 7], abs=1e-15)

    def test_outside_sentence_rejected(self, cluster_corpus):
        stranger = Sentence("zz", "completely new text")
        with pytest.raises(ParameterError):
            idf_modified_cosine(stranger, cluster_corpus.sentences[0], cluster_corpus)

    @pytest.mark.parametrize("swap", [False, True], ids=["impostor-first", "impostor-second"])
    def test_corpus_id_with_other_body_rejected(self, cluster_corpus, swap):
        d1s1, d4s1 = cluster_corpus.sentences[0], cluster_corpus.sentences[7]
        impostor = Sentence(d1s1.id, d4s1.body)
        pair = (d4s1, impostor) if swap else (impostor, d4s1)
        with pytest.raises(ParameterError):
            idf_modified_cosine(*pair, cluster_corpus)

    def test_same_id_with_other_body_rejected(self, cluster_corpus):
        d1s1 = cluster_corpus.sentences[0]
        impostor = Sentence(d1s1.id, "completely new text")
        for pair in [(impostor, d1s1), (d1s1, impostor), (impostor, impostor)]:
            with pytest.raises(ParameterError):
                idf_modified_cosine(*pair, cluster_corpus)

    def test_zero_weight_sentence(self):
        # only token appears in both sentences, so idf and the weight norm vanish
        corpus = two_sentence_corpus("common", "common extra words")
        a, b = corpus.sentences
        assert idf_modified_cosine(a, a, corpus) == 1.0
        assert idf_modified_cosine(a, b, corpus) == 0.0


class _DotLoopProbe(dict):
    """Weights that log each iteration of their items; only the dot loop iterates them."""

    def __init__(self, weights, log):
        super().__init__(weights)
        self.log = log

    def items(self):
        self.log.append(tuple(self))
        return super().items()


class TestCosineKernel:
    # only sentences 0 and 2 share a token
    BODIES = ["alpha beta", "gamma delta", "beta epsilon"]

    @pytest.fixture
    def corpus(self):
        return Corpus.verified(Sentence(f"s{i}", body) for i, body in enumerate(self.BODIES))

    @pytest.fixture
    def dot_loops(self, monkeypatch):
        """The tokens of the first record of each pair that enters the dot loop, in order."""
        log = []

        def probed(counts, idf, groups):
            group, tokens, weights, norm = _record(counts, idf, groups)
            return group, tokens, _DotLoopProbe(weights, log), norm

        monkeypatch.setattr(corpus_module, "_record", probed)
        return log

    def test_records_share_one_string_per_token(self, corpus):
        records = _records(corpus)
        (_, _, first, _), (_, tokens, third, _) = records[0], records[2]
        assert tokens == frozenset(third) == {"beta", "epsilon"}
        assert next(t for t in first if t == "beta") is next(t for t in third if t == "beta")

    def test_matrix_runs_the_dot_loop_only_for_pairs_sharing_a_token(self, corpus, dot_loops):
        values = build_similarity_matrix(corpus).values
        assert dot_loops == [("alpha", "beta")]
        assert np.array_equal(values, oracle_similarity_matrix(self.BODIES))

    def test_pair_runs_the_dot_loop_only_if_it_shares_a_token(self, corpus, dot_loops):
        oracle = oracle_similarity_matrix(self.BODIES)
        assert oracle[0, 2] > 0.0
        for i, j, loops in [(0, 1, []), (1, 2, []), (2, 1, []), (0, 2, [("alpha", "beta")]),
                            (2, 0, [("beta", "epsilon")])]:
            dot_loops.clear()
            value = idf_modified_cosine(corpus.sentences[i], corpus.sentences[j], corpus)
            assert dot_loops == loops, (i, j)
            assert value == oracle[i, j], (i, j)


class TestBuildSimilarityMatrix:
    def test_single_sentence(self):
        corpus = Corpus.verified([Sentence("s1", "hello world")])
        matrix = build_similarity_matrix(corpus)
        assert matrix.values.shape == (1, 1)
        assert matrix.values[0, 0] == 1.0

    def test_identical_sentences(self):
        corpus = two_sentence_corpus("same words here", "same words here")
        values = build_similarity_matrix(corpus).values
        assert np.allclose(values, 1.0)

    def test_cluster_matches_committed_fixture(self, cluster_similarity, fixture_similarity):
        assert np.array_equal(cluster_similarity.values, fixture_similarity)

    def test_cluster_matches_oracle(self, cluster_corpus, cluster_similarity):
        oracle = oracle_similarity_matrix([s.body for s in cluster_corpus.sentences])
        assert np.array_equal(cluster_similarity.values, oracle)

    def test_fixture_bits_hold_under_compensated_sum(
        self, cluster_corpus, fixture_similarity, monkeypatch
    ):
        # the fixture's bits come from plain left-to-right additions; a
        # builtin sum on the path would change 46 of its 121 entries on 3.12+
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        values = build_similarity_matrix(cluster_corpus).values
        oracle = oracle_similarity_matrix([s.body for s in cluster_corpus.sentences])
        monkeypatch.undo()
        assert np.array_equal(values, fixture_similarity)
        assert np.array_equal(oracle, fixture_similarity)

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="builtin sum is compensated from 3.12")
    def test_compensated_sum_is_the_builtin_one(self):
        rng = random.Random(3)
        for _ in range(2000):
            terms = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
                     for _ in range(rng.randint(0, 12))]
            assert compensated_sum(terms) == BUILTIN_SUM(terms), terms

    def test_matrix_entries_equal_pairwise_operation(self, cluster_corpus, cluster_similarity):
        for i, a in enumerate(cluster_corpus.sentences):
            for j, b in enumerate(cluster_corpus.sentences):
                expected = idf_modified_cosine(a, b, cluster_corpus)
                assert cluster_similarity.values[i, j] == expected, (i, j)

    def test_symmetry_and_diagonal(self, cluster_similarity):
        values = cluster_similarity.values
        assert np.abs(values - values.T).max() <= 1e-12
        assert np.array_equal(np.diag(values), np.ones(len(values)))
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_token_free_and_identical_pairs_equal_matrix_entries(self):
        # a token-free sentence, and two sentences with the same token multiset
        bodies = ["!!! ???", "alpha beta gamma", "Beta, alpha gamma.", "gamma delta", "delta"]
        corpus = Corpus.verified(Sentence(f"s{i}", body) for i, body in enumerate(bodies))
        values = build_similarity_matrix(corpus).values
        assert values[1, 2] == 1.0 and values[0, 1] == 0.0
        for i, a in enumerate(corpus.sentences):
            for j, b in enumerate(corpus.sentences):
                assert idf_modified_cosine(a, b, corpus) == values[i, j], (i, j)

    @staticmethod
    def pair_and_matrix(bodies, pairs=None):
        """Matrix of the corpus of ``bodies``, after checking the pair API agrees bit for bit.

        The pair API is checked on the index ``pairs`` given, or on every pair.
        """
        corpus = Corpus.verified(Sentence(f"s{i}", body) for i, body in enumerate(bodies))
        values = build_similarity_matrix(corpus).values
        if pairs is None:
            pairs = [(i, j) for i in range(len(bodies)) for j in range(len(bodies))]
        sentences = corpus.sentences
        for i, j in pairs:
            assert idf_modified_cosine(sentences[i], sentences[j], corpus) == values[i, j], (i, j)
        return values

    def test_reordered_recased_tokens_are_identical(self):
        values = self.pair_and_matrix(["Gamma beta ALPHA beta", "beta alpha, beta gamma", "delta"])
        assert values[0, 1] == 1.0
        assert values[0, 2] == 0.0

    def test_same_token_set_with_other_counts_is_the_cosine(self):
        # idf of "a" and "b" is log 2 each, so the weights are (2, 1) and (1, 2) times it
        bodies = ["a a b", "a b b", "c d", "c e"]
        values = self.pair_and_matrix(bodies)
        assert values[0, 1] != 1.0
        assert values[0, 1] == pytest.approx(0.8, abs=1e-15)
        assert values[0, 1] == oracle_similarity_matrix(bodies)[0, 1]

    def test_different_token_free_sentences_are_dissimilar(self):
        values = self.pair_and_matrix(["!!! ???", "...", "alpha beta"])
        assert values[0, 1] == 0.0 and values[0, 2] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_topic_corpora_match_oracle(self, cluster_corpus, seed):
        # as the rank-topics benchmark builds them: cluster words, drawn by
        # frequency, with a per-topic suffix, so topics share no token
        counts = Counter(t for s in cluster_corpus.sentences for t in tokenize(s.body))
        words = sorted(counts)
        probs = np.array([counts[w] for w in words], dtype=float)
        probs /= probs.sum()
        rng = np.random.default_rng(seed)
        n, topics = int(rng.integers(100, 151)), 4
        topic = [i % topics for i in range(n)] + [None, 1]
        bodies = [" ".join(words[j] + f"zq{i % topics}"
                           for j in rng.choice(len(words), size=int(rng.integers(12, 30)), p=probs))
                  for i in range(n)]
        # a token-free sentence and a duplicate of sentence 1
        bodies += ["!!! ???", bodies[1]]
        cross = [(i, j) for i in range(len(bodies)) for j in range(len(bodies))
                 if topic[i] != topic[j]]
        pairs = random.Random(seed).sample(cross, 150) + [
            (1, n + 1), (n, 0), (0, n), (0, 4), (2, 6), (3, 3)]
        # a token in every sentence has zero idf: no pair is token-disjoint,
        # yet the cross-topic similarities stay exactly zero
        for corpus_bodies in (bodies, [b + " everywhere" for b in bodies]):
            values = self.pair_and_matrix(corpus_bodies, pairs)
            assert values[1, n + 1] == values[n + 1, 1] == 1.0
            # the same-topic pairs of ``pairs`` share a token
            assert values[0, 4] > 0.0 and values[2, 6] > 0.0
            # the duplicate pair is 1.0 by definition, where the oracle's
            # cosine can fall an ulp short
            oracle = oracle_similarity_matrix(corpus_bodies)
            oracle[1, n + 1] = oracle[n + 1, 1] = 1.0
            assert np.array_equal(values, oracle)
            assert all(values[i, j] == 0.0 for i, j in cross)

    def test_permutation_equivariance(self, cluster_corpus, cluster_similarity):
        rng = np.random.default_rng(7)
        perm = rng.permutation(len(cluster_corpus))
        shuffled = Corpus.verified([cluster_corpus.sentences[i] for i in perm])
        permuted = build_similarity_matrix(shuffled).values
        assert np.array_equal(permuted, cluster_similarity.values[np.ix_(perm, perm)])


class TestValidationAndIo:
    def test_similarity_matrix_rejects_asymmetry(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @staticmethod
    def symmetric(n):
        """A valid similarity matrix of size ``n``, with entries strictly inside (0, 1)."""
        values = np.random.default_rng(n).uniform(0.25, 0.75, (n, n))
        values = (values + values.T) / 2
        np.fill_diagonal(values, 1.0)
        return values

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_symmetry_checked_across_block_edges(self, blocks, extra):
        # n on, one short of and one past a multiple of the block size; rows
        # on both sides of the first and of the last block edge
        n = blocks * SYMMETRY_BLOCK_ROWS + extra
        last = (n - 1) // SYMMETRY_BLOCK_ROWS * SYMMETRY_BLOCK_ROWS
        edges = {0, SYMMETRY_BLOCK_ROWS - 1, SYMMETRY_BLOCK_ROWS, last - 1, last, n - 1}
        edges = sorted(edges & set(range(n)))
        for row in edges:
            for col in (0, n - 1, (row + 1) % n):
                if row == col:
                    continue
                for gap, ok in [(2e-12, False), (0.5e-12, True)]:
                    values = self.symmetric(n)
                    values[row, col] += gap
                    if ok:
                        assert SimilarityMatrix(values).size == n
                    else:
                        with pytest.raises(ParameterError, match="symmetric"):
                            SimilarityMatrix(values)

    @pytest.mark.parametrize("entry", [-2e-12, 1 + 2e-12])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_similarity_matrix_rejects_entries_outside_unit_interval(self, entry, where):
        n = SYMMETRY_BLOCK_ROWS + 3
        values = self.symmetric(n)
        i, j = (0, 1) if where == "first" else (n - 2, n - 1)
        values[i, j] = values[j, i] = entry
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            SimilarityMatrix(values)
        values[i, j] = values[j, i] = min(max(entry, -0.5e-12), 1 + 0.5e-12)
        assert SimilarityMatrix(values).size == n

    def test_similarity_matrix_rejects_bad_diagonal(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_similarity_matrix_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            SimilarityMatrix(np.array([[1.0, bad], [bad, 1.0]]))

    def test_corpus_rejects_duplicate_ids(self):
        with pytest.raises(ParseError):
            Corpus.verified([Sentence("x", "one"), Sentence("x", "two")])

    def test_read_corpus_with_ids(self, tmp_path):
        path = tmp_path / "sents.tsv"
        path.write_text("id1\tfirst sentence\nid2\tsecond sentence\n", encoding="utf-8")
        corpus = read_corpus(path)
        assert corpus.ids == ["id1", "id2"]
        assert len(corpus) == 2

    @pytest.mark.parametrize("text", ["a\tfirst one\nb\tsecond one\n", "first one\nsecond one\n"],
                             ids=["ids", "auto-ids"])
    def test_read_corpus_ignores_byte_order_mark(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_corpus(marked) == read_corpus(plain)

    def test_read_corpus_auto_ids(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("first sentence\n\nsecond sentence\n", encoding="utf-8")
        corpus = read_corpus(path)
        assert corpus.ids == ["s1", "s2"]

    def test_read_corpus_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            read_corpus(path)

    def test_matrix_csv_full_precision(self, tmp_path, cluster_similarity):
        path = tmp_path / "sim.csv"
        write_matrix_csv(cluster_similarity.values, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, cluster_similarity.values)
