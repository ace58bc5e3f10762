import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dags, random_dag
from priosynth.embedding import (
    LAYOUT,
    Normalizer,
    apply_normalizer,
    build_vocab,
    cosine_sim,
    dump_normalizer,
    embed,
    embedding_dim,
    fit_normalizer,
    load_normalizer,
    retrieve_top_m,
)
from priosynth.graph import Dag, load_dag


class TestEmbed:
    def test_dimension_formula(self, diamond):
        vocab = ("alu", "mem")
        assert embed(diamond, vocab).shape == (19 + 2 * len(vocab),)
        assert embedding_dim(("a",)) == 21

    def test_layout_sections(self, diamond):
        vocab = ("alu", "mem")
        vec = embed(diamond, vocab)
        stats = diamond.stats()
        assert vec[0] == pytest.approx(stats.cp_length / 4)
        ratios = [stats.crit[v] / stats.cp_length for v in range(4)]
        assert vec[1] == pytest.approx(np.mean(ratios))
        assert vec[2] == pytest.approx(np.std(ratios))
        # Fanout values are 2, 1, 1, 0: bins 2, 1, 1, 0.
        assert vec[3] == pytest.approx(0.25)
        assert vec[4] == pytest.approx(0.5)
        assert vec[5] == pytest.approx(0.25)
        # Histograms sum to 1.
        assert vec[3:11].sum() == pytest.approx(1.0)
        assert vec[11:19].sum() == pytest.approx(1.0)
        # Type fractions: 3 alu, 1 mem.
        assert vec[19] == pytest.approx(0.75)
        assert vec[20] == pytest.approx(0.25)
        # Pressure section mirrors stats.pressure in vocab order.
        assert vec[21] == pytest.approx(stats.pressure["alu"])
        assert vec[22] == pytest.approx(stats.pressure["mem"])

    def test_unknown_type_rejected(self, diamond):
        with pytest.raises(ValueError, match="vocabulary"):
            embed(diamond, ("alu",))

    def test_unused_capacity_outside_the_vocabulary_rejected(self, diamond):
        extra = Dag(diamond.nodes, diamond.edges, {**diamond.capacities, "dsp": 1})
        with pytest.raises(ValueError, match="op type 'dsp' is not in the embedding vocabulary"):
            embed(extra, ("alu", "mem"))

    def test_empty_graph_is_zero_vector(self):
        dag = load_dag({"nodes": [], "edges": [], "capacities": {}})
        assert not embed(dag, ("a",)).any()

    @given(dags())
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_finite(self, dag):
        vocab = build_vocab([dag])
        a = embed(dag, vocab)
        b = embed(dag, vocab)
        assert np.array_equal(a, b)
        assert np.isfinite(a).all()

    def test_build_vocab_sorted_union(self, diamond, chain5):
        assert build_vocab([diamond, chain5]) == ("alu", "mem")


class TestNormalizer:
    def test_fit_center_and_scale(self):
        vectors = [np.array([0.0, 1.0]), np.array([2.0, 1.0]), np.array([4.0, 1.0])]
        norm = fit_normalizer(vectors)
        assert norm.mean == (2.0, 1.0)
        assert norm.std[0] == pytest.approx(2.0)
        assert norm.std[1] == 0.0

    def test_constant_dimension_centered_only(self):
        norm = fit_normalizer([np.array([3.0, 5.0]), np.array([3.0, 7.0])])
        out = apply_normalizer(norm, np.array([4.0, 6.0]))
        assert out[0] == pytest.approx(1.0)  # centered, not scaled
        assert out[1] == pytest.approx(0.0)

    def test_single_vector_center_only(self):
        norm = fit_normalizer([np.array([2.0, -1.0])])
        assert norm.std == (0.0, 0.0)
        out = apply_normalizer(norm, np.array([3.0, -1.0]))
        assert out.tolist() == [1.0, 0.0]

    def test_fit_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_normalizer([])

    def test_dimension_mismatch_rejected(self):
        norm = fit_normalizer([np.zeros(3)])
        with pytest.raises(ValueError, match="dim"):
            apply_normalizer(norm, np.zeros(4))

    def test_json_round_trip(self):
        vocab = ("a", "b")
        base = np.linspace(0.0, 1.0, embedding_dim(vocab))
        norm = fit_normalizer([base, 3.0 * base], vocab=vocab)
        text = dump_normalizer(norm)
        doc = json.loads(text)
        assert doc["layout"] == LAYOUT
        again = load_normalizer(text)
        assert again == norm
        assert dump_normalizer(again) == text

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            load_normalizer({"mean": [0.0], "std": [1.0], "layout": "v0"})

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"mean": "12", "std": "34"}, "'mean' must be a list of finite numbers"),
            ({"mean": [0.0, "1"], "std": [1.0, 1.0]}, "'mean' must be a list of finite numbers"),
            ({"mean": [0.0], "std": [False]}, "'std' must be a list of finite numbers"),
            ({"mean": [float("nan")], "std": [1.0]}, "'mean' must be a list of finite numbers"),
            ({"mean": [0.0, 1.0], "std": [1.0]}, "'mean' has 2 entries but 'std' has 1"),
            ({"mean": [0.0], "std": [1.0], "vocab": "ab"}, "'vocab' must be a list of strings"),
            ({"mean": [0.0], "std": [1.0], "stdev": [1.0]}, "normalizer: unknown key 'stdev'"),
        ],
    )
    def test_fields_are_checked_not_coerced(self, fields, message):
        with pytest.raises(ValueError, match=message):
            load_normalizer({"layout": LAYOUT, **fields})

    def test_integers_are_numbers(self):
        norm = load_normalizer({"layout": LAYOUT, "mean": [1, 2], "std": [0, 3.5]})
        assert norm.mean == (1.0, 2.0) and norm.std == (0.0, 3.5)

    def test_zscore_statistics(self):
        rng = random.Random(5)
        dags_list = [random_dag(rng, rng.randint(3, 9)) for _ in range(30)]
        vocab = build_vocab(dags_list)
        vectors = [embed(dag, vocab) for dag in dags_list]
        norm = fit_normalizer(vectors)
        transformed = np.stack([apply_normalizer(norm, vec) for vec in vectors])
        means = transformed.mean(axis=0)
        assert np.allclose(means, 0.0, atol=1e-9)
        stds = transformed.std(axis=0, ddof=1)
        spread = np.stack(vectors).std(axis=0, ddof=1)
        assert np.allclose(stds[spread > 0], 1.0, atol=1e-9)


class TestCosine:
    def test_parallel_is_one(self):
        assert cosine_sim(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_opposite_is_minus_one(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == pytest.approx(-1.0)

    def test_zero_vector_convention(self):
        assert cosine_sim(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        assert cosine_sim(np.zeros(3), np.zeros(3)) == 0.0


class TestRetrieve:
    def _entries(self, rng, count, dim=6):
        return [
            (f"k-{i:03d}", np.array([rng.uniform(-1, 1) for _ in range(dim)]))
            for i in range(count)
        ]

    def test_orders_by_similarity_then_id(self):
        query = np.array([1.0, 0.0])
        entries = [
            ("b", np.array([1.0, 0.0])),
            ("a", np.array([1.0, 0.0])),
            ("c", np.array([0.0, 1.0])),
        ]
        picked = retrieve_top_m(query, entries, 3)
        assert [name for name, _ in picked] == ["a", "b", "c"]

    def test_m_zero_and_oversized(self):
        entries = [("a", np.ones(2))]
        assert retrieve_top_m(np.ones(2), entries, 0) == []
        assert len(retrieve_top_m(np.ones(2), entries, 10)) == 1

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            retrieve_top_m(np.ones(2), [], -1)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 5]))
    @settings(max_examples=120, deadline=None)
    def test_matches_full_sort_oracle(self, seed, m):
        rng = random.Random(seed)
        entries = self._entries(rng, rng.randint(1, 20))
        query = np.array([rng.uniform(-1, 1) for _ in range(6)])
        picked = retrieve_top_m(query, entries, m)
        ranked = sorted(
            ((name, cosine_sim(query, vec)) for name, vec in entries),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert picked == ranked[:m]
