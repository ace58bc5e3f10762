import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_type_rule, dags, random_dag, reference_embed, reference_reconvergent_regions
from priosynth.bench import GeneratorSpec, generate_graph
from priosynth.dsl import parse_expr, print_expr
from priosynth.embedding import apply_normalizer, build_vocab, cosine_sim, embed, fit_normalizer, motif_matrix
from priosynth.graph import Dag, load_dag
from priosynth.kernels import (
    CATEGORY_FEATURES,
    FEATURE_SIGNS,
    Kernel,
    build_kernel_library,
    cluster_motifs,
    dump_library,
    induced_subdag,
    Motif,
    load_library,
    mine_motifs,
    query_vectors,
    retrieve_kernels,
    template_expr,
)

def desk_graph(seed):
    """A layered 5x5 graph, the shape of the desk corpora."""
    return generate_graph(GeneratorSpec("layered", layers=5, width=5, seed=seed, label="train"), 0)


def corpus(seed=11, count=25, n_lo=6, n_hi=18):
    rng = random.Random(seed)
    return [random_dag(rng, rng.randint(n_lo, n_hi), types=("a", "b", "c")) for _ in range(count)]


class TestTemplates:
    def test_known_template_terms(self):
        assert template_expr("reconvergent") == parse_expr("1*crit + 1*fanout + 1*reconv")
        assert template_expr("chain") == parse_expr("1*crit - 1*slack")
        assert template_expr("hub") == parse_expr("1*crit + 1*fanout")
        assert template_expr("whole_graph") == parse_expr("1*crit + 1*fanout")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel category 'nope'"):
            template_expr("nope")
        # A template family name of the v2 layout is not a category.
        with pytest.raises(ValueError, match="unknown kernel category 'fanout_aware'"):
            template_expr("fanout_aware")

    def test_default_template_round_trip(self):
        assert print_expr(template_expr("reconvergent")) == "1*crit + 1*fanout + 1*reconv"
        for category in CATEGORY_FEATURES:
            expr = template_expr(category)
            assert parse_expr(print_expr(expr)) == expr
            assert {name: weight for weight, name in expr.terms} == {
                feature: FEATURE_SIGNS[feature] for feature in CATEGORY_FEATURES[category]
            }


class TestInducedSubdag:
    def test_remaps_ids_and_keeps_inner_edges(self, diamond):
        sub = induced_subdag(diamond, [1, 3, 2])
        assert [rec.id for rec in sub.nodes] == [0, 1, 2]
        # Original ids 1, 2, 3 in order; edges (1,3) and (2,3) survive.
        assert sub.edges == ((0, 2), (1, 2))
        assert sub.nodes[0].duration == 3

    def test_restricts_capacities_to_used_types(self, diamond):
        sub = induced_subdag(diamond, [0, 1])
        assert set(sub.capacities) == {"alu"}


class TestMining:
    def test_only_library_categories(self, diamond, chain5):
        rng = random.Random(5)
        seen = set()
        for dag in [diamond, chain5] + [random_dag(rng, rng.randint(6, 16), edge_prob=0.2) for _ in range(15)]:
            seen.update(m.category for m in mine_motifs(dag))
        assert seen == set(CATEGORY_FEATURES) - {"whole_graph"} == {"hub", "reconvergent", "chain"}

    def test_chain_motifs_have_min_length_and_unit_degrees(self):
        rng = random.Random(3)
        for _ in range(15):
            dag = random_dag(rng, rng.randint(6, 16), edge_prob=0.2)
            for motif in mine_motifs(dag, chain_min_len=4):
                if motif.category != "chain":
                    continue
                assert len(motif.nodes) >= 4
                for v in motif.nodes:
                    assert len(dag.preds[v]) <= 1
                    assert len(dag.succs[v]) <= 1

    def test_pure_chain_graph_yields_one_chain_motif(self, chain5):
        motifs = [m for m in mine_motifs(chain5) if m.category == "chain"]
        assert len(motifs) == 1
        assert motifs[0].nodes == (0, 1, 2, 3, 4)
        assert motifs[0].anchor == 0

    def test_short_chain_not_mined(self):
        dag = load_dag(
            {
                "nodes": [{"id": i, "type": "a", "duration": 1} for i in range(3)],
                "edges": [[0, 1], [1, 2]],
                "capacities": {"a": 1},
            }
        )
        assert not [m for m in mine_motifs(dag) if m.category == "chain"]

    def test_reconvergent_anchors_have_positive_marker(self):
        rng = random.Random(9)
        for _ in range(15):
            dag = random_dag(rng, rng.randint(5, 14))
            reconv = dag.stats().reconv
            anchors = {m.anchor for m in mine_motifs(dag) if m.category == "reconvergent"}
            for v in anchors:
                assert reconv[v] > 0

    def test_reconvergent_region_weakly_connected(self):
        rng = random.Random(21)
        for _ in range(20):
            dag = random_dag(rng, rng.randint(5, 14))
            for motif in mine_motifs(dag):
                if motif.category != "reconvergent":
                    continue
                nodes = set(motif.nodes)
                seen = {motif.anchor}
                frontier = [motif.anchor]
                while frontier:
                    x = frontier.pop()
                    for y in list(dag.succs[x]) + list(dag.preds[x]):
                        if y in nodes and y not in seen:
                            seen.add(y)
                            frontier.append(y)
                assert seen == nodes

    def test_diamond_reconvergent_region(self, diamond):
        motifs = [m for m in mine_motifs(diamond) if m.category == "reconvergent"]
        assert len(motifs) == 1
        assert motifs[0].anchor == 0
        assert motifs[0].nodes == (0, 1, 2, 3)

    @given(st.one_of(dags(max_nodes=10), st.integers(0, 2**16).map(desk_graph)), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_reconvergent_regions_match_the_forward_search(self, dag, k):
        regions = [(m.anchor, m.nodes) for m in mine_motifs(dag, k=k) if m.category == "reconvergent"]
        assert regions == reference_reconvergent_regions(dag, k)

    def test_hub_anchor_count(self):
        rng = random.Random(4)
        dag = random_dag(rng, 20, edge_prob=0.4)
        hubs = [m for m in mine_motifs(dag) if m.category == "hub"]
        # At most ceil(n/10) fanout anchors plus ceil(n/10) fanin anchors.
        assert 0 < len(hubs) <= 4

    def test_deterministic(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        dag_a = random_dag(rng_a, 14)
        dag_b = random_dag(rng_b, 14)
        assert mine_motifs(dag_a) == mine_motifs(dag_b)


def reference_cluster_motifs(motifs, rows, theta, budget):
    """The scalar leader-clustering loop that ``cluster_motifs`` replaced:
    one ``cosine_sim`` call per (motif, cluster of its category), the
    strictly better similarity wins, so ties go to the earliest cluster."""
    clusters = []  # [category, centroid, support], in creation order
    leaders = []
    for motif, vec in zip(motifs, rows):
        best_index, best_sim = -1, -2.0
        for index, (category, centroid, _) in enumerate(clusters):
            if category != motif.category:
                continue
            sim = cosine_sim(centroid, vec)
            if sim > best_sim:
                best_index, best_sim = index, sim
        if best_index >= 0 and best_sim >= theta:
            category, centroid, support = clusters[best_index]
            clusters[best_index] = [category, centroid + (vec - centroid) / (support + 1), support + 1]
        else:
            clusters.append([motif.category, vec.copy(), 1])
            leaders.append(motif)
    ranked = sorted(range(len(clusters)), key=lambda i: (-clusters[i][2], i))
    return [(leaders[i], clusters[i][1], clusters[i][2], i) for i in sorted(ranked[:budget])]


def assert_same_clusters(rows, expected):
    """Identical leaders, supports and creation orders, and centroids equal
    bit for bit."""
    assert [(motif, support, order) for motif, _, support, order in rows] == [
        (motif, support, order) for motif, _, support, order in expected
    ]
    for (_, got, _, _), (_, want, _, _) in zip(rows, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def clustered(motifs, rows, theta, budget):
    """``cluster_motifs``, checked against the scalar reference."""
    clusters = cluster_motifs(motifs, rows, theta, budget)
    assert_same_clusters(clusters, reference_cluster_motifs(motifs, rows, theta, budget))
    return clusters


def toy_motif(category, index):
    return Motif(category=category, anchor=index, nodes=(index, index + 1))


class TestClustering:
    def _embedded(self, dags_list):
        """Every motif of the graphs, and its normalized embedding as a row."""
        vocab = build_vocab(dags_list)
        normalizer = fit_normalizer(embed(dags_list, vocab), vocab)
        pairs = [(dag, motif) for dag in dags_list for motif in mine_motifs(dag)]
        rows = embed([induced_subdag(dag, motif.nodes) for dag, motif in pairs], vocab)
        return [motif for _, motif in pairs], apply_normalizer(normalizer, rows)

    def test_supports_sum_to_motif_count(self):
        motifs, rows = self._embedded(corpus(seed=2, count=8))
        clusters = clustered(motifs, rows, theta=0.95, budget=10**9)
        assert sum(support for _, _, support, _ in clusters) == len(motifs)

    def test_identical_vectors_collapse(self):
        motifs, rows = self._embedded(corpus(seed=2, count=4))
        clusters = clustered([motifs[0]] * 5, np.tile(rows[0], (5, 1)), theta=0.95, budget=10)
        assert len(clusters) == 1
        assert clusters[0][2] == 5
        assert np.allclose(clusters[0][1], rows[0])

    def test_theta_above_one_keeps_everything_separate(self):
        motifs, rows = self._embedded(corpus(seed=2, count=4))
        clusters = clustered(motifs, rows, theta=1.01, budget=10**9)
        assert len(clusters) == len(motifs)

    def test_budget_keeps_highest_support(self):
        motifs, rows = self._embedded(corpus(seed=2, count=10))
        full_clusters = clustered(motifs, rows, theta=0.95, budget=10**9)
        kept = clustered(motifs, rows, theta=0.95, budget=5)
        assert len(kept) == 5
        cutoff = sorted((s for _, _, s, _ in full_clusters), reverse=True)[:5]
        assert sorted((s for _, _, s, _ in kept), reverse=True) == cutoff

    def test_centroid_is_running_mean(self):
        motifs, rows = self._embedded(corpus(seed=2, count=4))
        members = np.array([rows[0], rows[0] * 1.0001, rows[0] * 0.9999])
        clusters = clustered([motifs[0]] * 3, members, theta=0.9, budget=10)
        assert len(clusters) == 1
        assert np.allclose(clusters[0][1], members.mean(axis=0))

    @pytest.mark.parametrize("seed", [2, 5, 9])
    @pytest.mark.parametrize("theta", [0.5, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("budget", [7, 10**9])
    def test_matches_the_scalar_reference(self, seed, theta, budget):
        motifs, rows = self._embedded(corpus(seed=seed, count=10))
        clustered(motifs, rows, theta, budget)

    def test_no_motifs_form_no_clusters(self):
        assert clustered([], np.empty((0, 4)), 0.95, 10) == []

    def test_many_clusters_of_one_category_keep_a_global_creation_order(self):
        # Twelve distinct hub directions lead twelve hub clusters, more than
        # fit a table of 8, while reconvergent motifs between them lead and
        # join clusters of their own; late hub motifs join clusters 1 and 10.
        rng = np.random.default_rng(7)
        hubs, others = rng.standard_normal((12, 6)), rng.standard_normal((2, 6))
        motifs, vecs = [], []
        for i, hub in enumerate(hubs):
            motifs.append(toy_motif("hub", i))
            vecs.append(hub)
            if i % 3 == 0:
                motifs.append(toy_motif("reconvergent", 100 + i))
                vecs.append(others[i % 2] * (1.0 + i / 1000))
        for i in (10, 1, 10):
            motifs.append(toy_motif("hub", 200 + i))
            vecs.append(hubs[i] * 1.001)
        clusters = clustered(motifs, np.array(vecs), 0.99, 10**9)
        led = [(motif.category, motif.anchor, support, order) for motif, _, support, order in clusters]
        assert led == [
            ("hub", 0, 1, 0),
            ("reconvergent", 100, 2, 1),
            ("hub", 1, 2, 2),
            ("hub", 2, 1, 3),
            ("hub", 3, 1, 4),
            ("reconvergent", 103, 2, 5),
            ("hub", 4, 1, 6),
            ("hub", 5, 1, 7),
            ("hub", 6, 1, 8),
            ("hub", 7, 1, 9),
            ("hub", 8, 1, 10),
            ("hub", 9, 1, 11),
            ("hub", 10, 3, 12),
            ("hub", 11, 1, 13),
        ]

    def test_theta_exactly_at_a_similarity_joins(self):
        rng = np.random.default_rng(3)
        first, second = rng.standard_normal(6), rng.standard_normal(6)
        sim = cosine_sim(first, second)
        motifs = [toy_motif("hub", 0), toy_motif("hub", 1)]
        for theta, count in ((sim, 1), (float(np.nextafter(sim, 2.0)), 2)):
            assert len(clustered(motifs, np.array([first, second]), theta, 10)) == count

    def test_tied_best_centroids_go_to_the_earliest(self):
        motifs = [toy_motif("chain", 0), toy_motif("chain", 1), toy_motif("chain", 2)]
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        assert cosine_sim(rows[0], rows[2]) == cosine_sim(rows[1], rows[2])
        clusters = clustered(motifs, rows, 0.5, 10)
        assert [(row[0].anchor, row[2]) for row in clusters] == [(0, 2), (1, 1)]

    @pytest.mark.parametrize("theta", [0.95, 0.0, -1.0])
    def test_zero_vectors_score_zero(self, theta):
        zero, unit = np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0])
        motifs = [toy_motif(category, i) for i, category in enumerate(["hub", "hub", "hub", "reconvergent", "hub"])]
        clusters = clustered(motifs, np.array([zero, unit, zero, zero, unit]), theta, 10)
        if theta > 0:
            assert [row[2] for row in clusters] == [1, 2, 1, 1]


class TestLibrary:
    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            # A float k never equals a BFS depth, so it would unbound the
            # reconvergence search; a float budget would break its slice.
            ("k", 2.5, "k must be of type int, got 2.5"),
            ("k", True, "k must be of type int, got true"),
            ("budget", 3.0, "budget must be of type int, got 3.0"),
            ("chain_min_len", 4.0, "chain_min_len must be of type int, got 4.0"),
            ("chain_min_len", None, "chain_min_len must be of type int, got null"),
            ("theta", "0.9", 'theta must be of type float, got "0.9"'),
            ("theta", True, "theta must be of type float, got true"),
            ("theta", float("nan"), "theta must be finite, got nan"),
        ],
    )
    def test_params_are_type_checked(self, field, value, message):
        assert_type_rule("library", {field: value}, message)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            build_kernel_library(corpus(count=2), **{field: value})

    def test_build_respects_budget_and_sorting(self):
        train = corpus()
        kernels, normalizer = build_kernel_library(train, budget=20)
        assert len(kernels) <= 20
        assert [k.id for k in kernels] == sorted(k.id for k in kernels)
        assert normalizer.vocab == build_vocab(train)
        dim = embed(train[:1], normalizer.vocab).shape[1]
        for kern in kernels:
            assert len(kern.signature) == dim
            assert kern.support >= 1
            assert kern.category in CATEGORY_FEATURES

    def test_builds_no_graph_per_motif(self, monkeypatch):
        finished: list[Dag] = []
        real_finish = Dag._finish

        def counting_finish(dag, *args):
            finished.append(dag)
            real_finish(dag, *args)

        monkeypatch.setattr(Dag, "_finish", counting_finish)
        train = corpus(count=10)
        kernels, _ = build_kernel_library(train, budget=10**9)
        assert sum(kern.support for kern in kernels) == sum(len(mine_motifs(dag)) for dag in train) > 0
        assert finished == train

    def test_motif_rows_match_the_built_subgraphs(self):
        train = corpus(seed=5)
        vocab = build_vocab(train)
        mined = [mine_motifs(dag) for dag in train]
        rows = motif_matrix([(dag, [motif.nodes for motif in motifs]) for dag, motifs in zip(train, mined)], vocab)
        expected = [reference_embed(induced_subdag(dag, m.nodes), vocab) for dag, ms in zip(train, mined) for m in ms]
        assert len(rows) == len(expected) > 100
        for row, vec in zip(rows, expected):
            assert row.tobytes() == vec.tobytes()

    def test_build_deterministic_bytes(self):
        a, _ = build_kernel_library(corpus())
        b, _ = build_kernel_library(corpus())
        assert dump_library(a) == dump_library(b)

    def test_json_round_trip(self):
        kernels, _ = build_kernel_library(corpus(count=10))
        text = dump_library(kernels)
        doc = json.loads(text)
        assert doc["layout"] == "v3"
        for entry in doc["kernels"]:
            assert set(entry) == {"id", "category", "signature", "support"}
        again = load_library(text)
        assert again == kernels
        assert dump_library(again) == text

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            load_library({"layout": "v9", "kernels": []})
        # A library as the v2 layout wrote it, with a template of default
        # magnitudes per kernel, and as the v1 layout wrote it, which added a
        # search range per template feature.
        template = {"family": "fanout_aware", "defaults": {"crit": 1, "fanout": 1}}
        entry = {"id": "hub-000", "category": "hub", "signature": [0.5], "template": template, "support": 2}
        with pytest.raises(ValueError, match="unsupported kernel library layout 'v2'"):
            load_library({"layout": "v2", "kernels": [entry]})
        ranges = {"crit": [0, 4], "fanout": [0, 4]}
        with pytest.raises(ValueError, match="unsupported kernel library layout 'v1'"):
            load_library({"layout": "v1", "kernels": [{**entry, "template": {**template, "ranges": ranges}}]})

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"id": 7}, "entry 0: 'id' must be a string"),
            ({"category": None}, "entry 0: 'category' must be a string"),
            ({"signature": "12"}, r"entry 0 \(k\): 'signature' must be a list of finite numbers"),
            ({"signature": [1.0, True]}, "'signature' must be a list of finite numbers"),
            ({"support": "3"}, "'support' must be an integer"),
            ({"support": True}, "'support' must be an integer"),
            (
                {"category": "nope"},
                r"entry 0 \(k\): 'category' must be one of \['chain', 'hub', 'reconvergent', 'whole_graph'\]",
            ),
            # A family is not a category.
            ({"category": "fanout_aware"}, r"entry 0 \(k\): 'category' must be one of"),
            ({"signatrue": [0.5]}, "entry 0: unknown key 'signatrue'"),
            (
                {"template": {"family": "fanout_aware", "defaults": {"crit": 1, "fanout": 1}}},
                "entry 0: unknown key 'template'",
            ),
            ({"support": 0}, r"entry 0 \(k\): 'support' must be at least 1, got 0"),
            ({"support": -5}, r"entry 0 \(k\): 'support' must be at least 1, got -5"),
        ],
    )
    def test_entries_are_checked_not_coerced(self, change, message):
        entry = {"id": "k", "category": "hub", "signature": [0.5, -1], "support": 2}
        (kernel,) = load_library({"layout": "v3", "kernels": [entry]})
        assert kernel == Kernel(id="k", category="hub", signature=(0.5, -1.0), support=2)
        with pytest.raises(ValueError, match=message):
            load_library({"layout": "v3", "kernels": [{**entry, **change}]})

    @pytest.mark.parametrize(
        ("entries", "message"),
        [({}, "'kernels' must be an array"), (["k"], "entry 0 must be an object")],
    )
    def test_kernels_must_be_an_array_of_objects(self, entries, message):
        with pytest.raises(ValueError, match=message):
            load_library({"layout": "v3", "kernels": entries})

    @pytest.mark.parametrize(
        ("second", "message"),
        [
            ({}, r"entry 1 \(hub-000\): id 'hub-000' repeats entry 0"),
            ({"id": "hub-001", "signature": [0.5]}, r"entry 1 \(hub-001\): 'signature' has 1 entries but entry 0 has 2"),
        ],
    )
    def test_library_is_checked_as_a_whole(self, second, message):
        # Retrieval maps ids back to kernels and stacks signatures as rows.
        entry = {"id": "hub-000", "category": "hub", "signature": [0.5, -1], "support": 2}
        with pytest.raises(ValueError, match=message):
            load_library({"layout": "v3", "kernels": [entry, {**entry, **second}]})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="kernel library: unknown key 'version'"):
            load_library({"layout": "v3", "kernels": [], "version": 2})

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            build_kernel_library([])


class TestQueryVectors:
    def test_normalizer_fits_the_per_graph_rows(self):
        train = corpus()
        vocab = build_vocab(train)
        _, normalizer = build_kernel_library(train)
        assert normalizer == fit_normalizer(np.stack([reference_embed(dag, vocab) for dag in train]), vocab)

    def test_rows_are_the_normalized_embeddings_and_read_only(self):
        train = corpus(count=12)
        _, normalizer = build_kernel_library(train)
        vectors = query_vectors(train, normalizer)
        assert list(vectors) == train
        for dag in train:
            expected = apply_normalizer(normalizer, reference_embed(dag, normalizer.vocab))
            assert vectors[dag].tobytes() == expected.tobytes()
            assert not vectors[dag].flags.writeable


class TestRetrieveKernels:
    def test_self_similarity_tops_for_member_graph(self):
        train = corpus(count=12)
        kernels, normalizer = build_kernel_library(train)
        picked = retrieve_kernels(query_vectors(train[:1], normalizer)[train[0]], kernels, 5)
        assert len(picked) == 5
        sims = [sim for _, sim in picked]
        assert sims == sorted(sims, reverse=True)

    def test_m_larger_than_library(self):
        train = corpus(count=6)
        kernels, normalizer = build_kernel_library(train, budget=3)
        picked = retrieve_kernels(query_vectors(train[:1], normalizer)[train[0]], kernels, 10)
        assert len(picked) == len(kernels)
