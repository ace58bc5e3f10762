import hashlib
import io
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import assert_type_rule, dags, random_dag, reference_eval_expr, reference_fallback_synthesize, type_order
from priosynth import kernels as kernels_module
from priosynth import config, loop
from priosynth.dsl import FEATURES, ExprError, eval_expr, make_expr, parse_expr, print_expr
from priosynth.embedding import build_vocab
from priosynth.graph import Dag, canonical_json, load_dag
from priosynth.kernels import CATEGORY_FEATURES, Kernel, build_kernel_library, query_vectors
from priosynth.loop import (
    ABLATIONS,
    LoopConfig,
    build_prompt,
    evaluate_heuristic,
    fallback_basis,
    fallback_synthesize,
    make_feedback,
    mean_score,
    parse_reply,
    run_ablation,
    run_loop,
    sample_batch,
    score_schedule,
    select_kernels,
    whole_graph_kernels,
)
from priosynth.providers import HttpProvider, ProviderError, ProviderSpec, ScriptedProvider
from priosynth.scheduler import list_schedule


def corpus(seed=11, count=20, n_lo=6, n_hi=16):
    rng = random.Random(seed)
    dags = []
    for i in range(count):
        dag = random_dag(rng, rng.randint(n_lo, n_hi), types=("a", "b"))
        dag.name = f"g-{i:03d}"
        dags.append(dag)
    return dags


# sha256 of canonical_json of the provider-sourced history in
# ``test_provider_history_bytes_are_pinned``.
PROVIDER_HISTORY_SHA256 = "03d31f0bba5cf5ff27be4695c57f62371865482a849a1e65dd028fc8391d96d7"


@pytest.fixture(scope="module")
def setup():
    train = corpus(seed=1, count=20)
    val = corpus(seed=2, count=8)
    vocab = build_vocab(train + val)
    kernels, normalizer = build_kernel_library(train, vocab=vocab)
    return train, val, vocab, kernels, normalizer


class TestScoring:
    def test_score_formula(self):
        assert score_schedule(10, True) == -10.0
        assert score_schedule(10, False) == -5010.0

    def test_evaluate_follows_input_order(self, setup):
        train, val, vocab, kernels, normalizer = setup
        evals = evaluate_heuristic(parse_expr("1*crit"), val)
        assert [e["graph"] for e in evals] == [dag.name for dag in val]

    def test_mean_score(self):
        dag = corpus(count=1)[0]
        evals = evaluate_heuristic(parse_expr("1*crit"), [dag])
        assert mean_score(evals) == evals[0]["score"]
        assert mean_score([]) == 0.0


class TestBatching:
    def test_batch_is_deterministic_and_sorted(self, setup):
        train, *_ = setup
        cfg = LoopConfig(seed=5, batch_size=6)
        a = sample_batch(train, cfg, 0)
        b = sample_batch(train, cfg, 0)
        assert [d.name for d in a] == [d.name for d in b]
        names = [d.name for d in a]
        assert names == sorted(names)
        assert len(a) == 6

    def test_batches_differ_across_iterations(self, setup):
        train, *_ = setup
        cfg = LoopConfig(seed=5, batch_size=6)
        names0 = [d.name for d in sample_batch(train, cfg, 0)]
        names1 = [d.name for d in sample_batch(train, cfg, 1)]
        assert names0 != names1

    def test_small_corpus_uses_everything(self, setup):
        train, *_ = setup
        cfg = LoopConfig(batch_size=100)
        assert sample_batch(train, cfg, 0) == list(train)


class TestSelection:
    def test_full_uses_similarity(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(ablation="full", top_m=3)
        picks = select_kernels(train[:2], kernels, cfg, 0, query_vectors(train, normalizer))
        assert len(picks) == 2
        for _, kerns in picks:
            assert len(kerns) == 3

    def test_no_retrieval_empty(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(ablation="no_retrieval")
        for _, kerns in select_kernels(train[:3], kernels, cfg, 0, query_vectors(train, normalizer)):
            assert kerns == []

    def test_random_kernel_seeded(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(ablation="random_kernel", top_m=4, seed=9)
        vectors = query_vectors(train, normalizer)
        a = select_kernels(train[:3], kernels, cfg, 1, vectors)
        b = select_kernels(train[:3], kernels, cfg, 1, vectors)
        assert [[k.id for k in ks] for _, ks in a] == [[k.id for k in ks] for _, ks in b]
        c = select_kernels(train[:3], kernels, cfg, 2, vectors)
        assert [[k.id for k in ks] for _, ks in a] != [[k.id for k in ks] for _, ks in c]

    def test_whole_graph_kernels_one_per_graph(self, setup):
        train, val, vocab, kernels, normalizer = setup
        whole = whole_graph_kernels(train, query_vectors(train, normalizer))
        assert len(whole) == len(train)
        assert all(k.category == "whole_graph" for k in whole)
        assert all(CATEGORY_FEATURES[k.category] == ("crit", "fanout") for k in whole)


class TestPrompt:
    def test_sections_in_order(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=2)
        batch = train[:3]
        selections = select_kernels(batch, kernels, cfg, 0, query_vectors(train, normalizer))
        prompt = build_prompt(batch, selections, ["earlier feedback"])
        order = [
            prompt.index("# Task"),
            prompt.index("# Batch"),
            prompt.index("# Retrieved kernels"),
            prompt.index("# Grammar"),
            prompt.index("# Feedback"),
        ]
        assert order == sorted(order)
        assert "earlier feedback" in prompt
        for dag in batch:
            assert dag.name in prompt

    def test_kernel_section_omitted_when_empty(self, setup):
        train, val, vocab, kernels, normalizer = setup
        prompt = build_prompt(train[:2], [(d, []) for d in train[:2]], [])
        assert "# Retrieved kernels" not in prompt

    def test_prompt_is_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=2)
        batch = train[:3]
        selections = select_kernels(batch, kernels, cfg, 0, query_vectors(train, normalizer))
        assert build_prompt(batch, selections, []) == build_prompt(batch, selections, [])

    def test_types_list_matches_the_vocabulary_rendering(self, setup):
        # The types are listed in the graph's capacity order; an unused
        # capacity type ("ab", between the used "a" and "b") is left out,
        # exactly as the rendering over a run's vocabulary left it out.
        train, *_ = setup
        base = train[0]
        dag = Dag(base.nodes, base.edges, {**base.capacities, "ab": 1}, name=base.name)
        vocab = build_vocab([*train, dag])
        counts = Counter(rec.op_type for rec in dag.nodes)
        vocab_text = ", ".join(f"{op}:{counts[op]}" for op in vocab if counts.get(op))
        assert vocab == ("a", "ab", "b") and set(counts) == {"a", "b"}
        assert f"types[{vocab_text}]" in build_prompt([dag], [(dag, [])], [])


class TestReplyParsing:
    def test_plain_line(self):
        assert parse_reply("2*crit - 1*level") == parse_expr("2*crit - 1*level")

    def test_skips_fences_and_prose_comments(self):
        reply = "```\n# my answer\n1*crit + 1*fanout\n```\n"
        assert parse_reply(reply) == parse_expr("1*crit + 1*fanout")

    def test_skips_unparseable_prose(self):
        reply = "Sure thing!\n\n0.5*crit - 2*slack\n"
        assert parse_reply(reply) == parse_expr("0.5*crit - 2*slack")

    def test_no_expression_raises(self):
        with pytest.raises(ExprError):
            parse_reply("I cannot help with that.")


class TestFallback:
    def test_no_kernels_still_synthesizes(self, setup):
        train, *_ = setup
        batch = train[:6]
        expr = fallback_synthesize(fallback_basis([(d, []) for d in batch]), batch)
        names = {name for _, name in expr.terms}
        assert names  # non-empty canonical expression
        assert names <= {"crit", "fanout", "level", "const"}

    def test_beats_or_matches_baseline_on_batch(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, cfg, 0, query_vectors(train, normalizer))
        expr = fallback_synthesize(fallback_basis(selections), batch)
        base = parse_expr("1*crit + 1*fanout - 1*level")

        def batch_score(e):
            return mean_score(evaluate_heuristic(e, batch))

        assert batch_score(expr) >= batch_score(base)

    def test_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, cfg, 0, query_vectors(train, normalizer))
        basis = fallback_basis(selections)
        assert fallback_synthesize(basis, batch) == fallback_synthesize(basis, batch)

    @pytest.mark.parametrize("mode", ABLATIONS)
    def test_matches_reference_synthesizer(self, setup, mode):
        train, val, vocab, kernels, normalizer = setup
        vectors = query_vectors(train, normalizer)
        if mode == "no_motif":
            kernels = whole_graph_kernels(train, vectors)
        for iteration in range(3):
            cfg = LoopConfig(seed=iteration, top_m=2 + iteration, batch_size=4 + 3 * iteration, ablation=mode)
            batch = sample_batch(train, cfg, iteration)
            selections = select_kernels(batch, kernels, cfg, iteration, vectors)
            expected = reference_fallback_synthesize(selections, batch)
            assert fallback_synthesize(fallback_basis(selections), batch) == expected

    def test_reads_only_the_features_of_the_selection(self, setup):
        # hub and whole_graph kernels name the same features, so these
        # selections differ in kernel ids, categories, signatures (hence
        # similarities) and counts, but give one basis.
        train, *_ = setup
        batch = train[:6]
        hub = Kernel(id="hub-000", category="hub", signature=(1.0, 0.0), support=5)
        whole = Kernel(id="whole_graph-0003", category="whole_graph", signature=(-1.0, 2.0), support=1)
        chains = [
            Kernel(id=f"chain-{i:03d}", category="chain", signature=(float(i), 1.0), support=i + 1) for i in range(3)
        ]
        first = [(dag, [hub, chains[0]]) for dag in batch]
        second = [(dag, [chains[1 + index % 2], whole, whole]) for index, dag in enumerate(batch)]
        assert fallback_basis(first) == fallback_basis(second) == ("crit", "fanout", "level", "slack")
        # Without a reconvergent or chain kernel the basis is the core alone.
        core = ("crit", "fanout", "level")
        assert fallback_basis([(dag, [hub]) for dag in batch]) == core
        assert fallback_basis([(dag, [whole, whole]) for dag in batch]) == core
        assert fallback_basis([(dag, []) for dag in batch]) == core

    def test_core_basis_runs_one_descent(self, setup, monkeypatch):
        # With no pass a descent scores only its start, so the candidates are
        # the starts.  With the core alone the two starts are equal.
        train, *_ = setup
        batch = train[:8]
        real_make_expr = loop.make_expr

        def candidates(basis, passes):
            made = []

            def recording_make_expr(weights):
                made.append(dict(weights))
                return real_make_expr(weights)

            monkeypatch.setattr(loop, "make_expr", recording_make_expr)
            monkeypatch.setattr(loop, "_MAX_PASSES", passes)
            fallback_synthesize(basis, batch)
            monkeypatch.undo()
            return made[:-1]  # the last call builds the winner

        core = ("crit", "fanout", "level")
        wider = ("crit", "fanout", "level", "reconv")
        assert candidates(core, 0) == [{"crit": 1.0, "fanout": 1.0, "level": -1.0}]
        assert candidates(wider, 0) == [
            {"crit": 1.0, "fanout": 1.0, "level": -1.0, "reconv": 1.0},
            {"crit": 1.0, "fanout": 1.0, "level": -1.0, "reconv": 0.0},
        ]
        # Every descent moves the whole basis: none drops reconv.
        assert all(list(weights) == list(wider) for weights in candidates(wider, loop._MAX_PASSES))

    def test_every_template_feature_is_searchable(self):
        # A template naming a per-type feature such as pressure would hand
        # the search a term that cannot reorder a ready heap.
        for category, features in kernels_module.CATEGORY_FEATURES.items():
            for feature in features:
                assert feature in kernels_module.FEATURE_SIGNS, (category, feature)
        assert set(loop._CORE_FEATURES) <= set(kernels_module.FEATURE_SIGNS)
        assert not {"pressure", "const"} & set(kernels_module.FEATURE_SIGNS)

    def test_never_scores_per_type_features(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, cfg, 0, query_vectors(train, normalizer))
        assert all(kerns for _, kerns in selections)
        candidates = []
        real_make_expr = loop.make_expr

        def recording_make_expr(weights):
            expr = real_make_expr(weights)
            candidates.append(expr)
            return expr

        monkeypatch.setattr(loop, "make_expr", recording_make_expr)
        fallback_synthesize(fallback_basis(selections), batch)
        assert candidates
        for expr in candidates:
            assert not {"pressure", "const"} & {name for _, name in expr.terms}, print_expr(expr)

    def test_repeated_candidate_skips_the_memo(self, setup, monkeypatch):
        # The reference builds and scores every candidate the descent visits,
        # repeats included; the fallback builds every visited candidate too,
        # but scores each distinct expression once, in one stacked pass.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(top_m=3)
        batch = train[:8]
        selections = select_kernels(batch, kernels, cfg, 0, query_vectors(train, normalizer))
        visited, made, scored = [], [], []

        def recording(made_list, real):
            def record(weights):
                made_list.append(tuple(weights.items()))
                return real(weights)

            return record

        real_outcomes = loop._Stack.outcomes

        def recording_outcomes(stack, terms, memo):
            scored.append(terms)
            return real_outcomes(stack, terms, memo)

        monkeypatch.setattr(helpers, "make_expr", recording(visited, helpers.make_expr))
        reference_fallback_synthesize(selections, batch)
        monkeypatch.setattr(loop, "make_expr", recording(made, loop.make_expr))
        monkeypatch.setattr(loop._Stack, "outcomes", recording_outcomes)
        fallback_synthesize(fallback_basis(selections), batch)
        visited, made = visited[:-1], made[:-1]  # the last call builds the winner
        assert made == visited
        assert len(set(made)) < len(made)
        assert scored == list(dict.fromkeys(make_expr(dict(point)).terms for point in made))


class TestFeedback:
    def test_mentions_worst_regressions(self, setup):
        train, val, vocab, kernels, normalizer = setup
        base = evaluate_heuristic(parse_expr("1*level"), val)
        cand = evaluate_heuristic(parse_expr("-1*crit"), val)
        text = make_feedback(cand, base, val)
        if any(c["makespan"] > b["makespan"] for c, b in zip(cand, base)):
            assert "regressions" in text
            assert "->" in text

    def test_clean_candidate_reported(self, setup):
        train, val, vocab, kernels, normalizer = setup
        base = evaluate_heuristic(parse_expr("1*level"), val)
        text = make_feedback(base, base, val)
        assert "matched or beat" in text

    def test_at_most_five_regression_lines(self):
        train = corpus(seed=31, count=30, n_lo=10, n_hi=16)
        base = evaluate_heuristic(parse_expr("1*crit + 1*fanout - 1*level"), train)
        cand = evaluate_heuristic(parse_expr("-1*crit - 1*fanout + 1*level"), train)
        regressed = sum(1 for c, b in zip(cand, base) if c["makespan"] > b["makespan"])
        assert regressed > 5  # the scenario really has many regressions
        text = make_feedback(cand, base, train)
        assert sum(1 for line in text.splitlines() if line.startswith("- ")) == 5


class TestRunLoop:
    def test_fallback_history_shape(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3)
        result = run_loop(train, val, kernels, normalizer, vocab, cfg)
        history = result.history
        assert len(history["records"]) == cfg.iterations
        assert history["best"]["expr"] == result.history["records"][result.best_iteration]["expr"]
        assert all(record["source"] == "fallback" for record in history["records"])
        assert len(history["records"][0]["evals"]) == len(val)
        assert history["config"]["seed"] == 3

    def test_fallback_run_builds_no_prompt(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup

        def no_prompt(*args, **kwargs):
            raise AssertionError("a run without a provider rendered a prompt")

        monkeypatch.setattr(loop, "build_prompt", no_prompt)
        result = run_loop(train, val, kernels, normalizer, vocab, LoopConfig(seed=3, iterations=2))
        assert [r["source"] for r in result.history["records"]] == ["fallback", "fallback"]

    def test_vocabulary_other_than_the_normalizers_is_rejected(self, setup):
        train, val, vocab, kernels, normalizer = setup
        reordered = tuple(reversed(vocab))
        assert reordered != normalizer.vocab
        message = r"^vocabulary \('b', 'a'\) does not match the normalizer's \('a', 'b'\)$"
        with pytest.raises(ValueError, match=message):
            run_loop(train, val, kernels, normalizer, reordered, LoopConfig())
        with pytest.raises(ValueError, match=message):
            run_ablation(train, val, kernels, normalizer, reordered, LoopConfig())

    def test_byte_identical_reruns(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3)
        a = run_loop(train, val, kernels, normalizer, vocab, cfg)
        b = run_loop(train, val, kernels, normalizer, vocab, cfg)
        assert canonical_json(a.history) == canonical_json(b.history)

    def test_provider_history_bytes_are_pinned(self, setup):
        # A valid reply, then an unparseable one followed by a valid retry,
        # then an exhausted script: provider and fallback records, each with
        # feedback, the first of it on regressions.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=3)
        provider = ScriptedProvider(["-2*crit", "garbage", "2*crit - 1*level"])
        history = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider).history
        assert [r["source"] for r in history["records"]] == ["provider", "provider", "fallback"]
        assert "worst regressions" in history["records"][0]["feedback"]
        digest = hashlib.sha256(canonical_json(history).encode("utf-8")).hexdigest()
        assert digest == PROVIDER_HISTORY_SHA256

    def test_scripted_provider_wins(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=2)
        provider = ScriptedProvider(["3*crit - 1*level", "1*crit + 1*fanout - 1*level"])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert [r["source"] for r in result.history["records"]] == ["provider", "provider"]
        assert len(provider.calls) == 2
        assert "# Task" in provider.calls[0]

    def test_bad_replies_retry_then_fallback(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1)
        provider = ScriptedProvider(["garbage", "more garbage", "still no"])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.history["records"][0]["source"] == "fallback"
        assert len(provider.calls) == 3

    def test_partial_garbage_recovers_on_retry(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1)
        provider = ScriptedProvider(["garbage", "2*crit - 1*level"])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.history["records"][0]["source"] == "provider"
        assert result.history["records"][0]["expr"] == "2*crit - 1*level"

    def test_non_string_http_content_retries_then_fallback(self, setup, monkeypatch):
        import urllib.request

        class NullReply(io.BytesIO):
            status = 200

        requests = []

        def fake_urlopen(request, timeout):
            requests.append(request)
            return NullReply(b'{"choices": [{"message": {"content": null}}]}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1)
        provider = HttpProvider("http://provider.invalid/v1/chat/completions")
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.history["records"][0]["source"] == "fallback"
        assert len(requests) == 3
        with pytest.raises(ProviderError, match="provider failed after 3 attempts: malformed provider response"):
            run_loop(train, val, kernels, normalizer, vocab, replace(cfg, fallback_on_error=False), provider=provider)

    def test_fallback_on_error_false_raises(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=1, fallback_on_error=False)
        provider = ScriptedProvider([])
        with pytest.raises(ProviderError):
            run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)

    def test_best_breaks_ties_toward_earliest(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=3)
        same = "1*crit + 1*fanout - 1*level"
        provider = ScriptedProvider([same, same, same])
        result = run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert result.best_iteration == 0

    def test_feedback_flows_into_later_prompts(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3, iterations=2)
        provider = ScriptedProvider(["-2*crit", "1*crit"])
        run_loop(train, val, kernels, normalizer, vocab, cfg, provider=provider)
        assert "# Feedback" not in provider.calls[0]
        assert "# Feedback" in provider.calls[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(ablation="bogus")
        with pytest.raises(ValueError):
            LoopConfig(iterations=0)
        # The provider's document is not a ProviderSpec; only the reader makes
        # one of it.  A key that JSON cannot hold is shown by repr.
        for provider in ({"kind": "http"}, {(1, 2): 3}):
            with pytest.raises(ValueError, match=r"^provider must be of type ProviderSpec, got \{"):
                LoopConfig(provider=provider)

    @pytest.mark.parametrize(
        ("name", "value", "message"),
        [
            ("iterations", 2.0, "iterations must be of type int, got 2.0"),
            ("iterations", True, "iterations must be of type int, got true"),
            ("batch_size", 2.5, "batch_size must be of type int, got 2.5"),
            ("batch_size", False, "batch_size must be of type int, got false"),
            ("top_m", "3", 'top_m must be of type int, got "3"'),
            ("top_m", True, "top_m must be of type int, got true"),
            ("seed", 1.0, "seed must be of type int, got 1.0"),
            ("seed", None, "seed must be of type int, got null"),
            ("fallback_on_error", 1, "fallback_on_error must be of type bool, got 1"),
            ("fallback_on_error", "false", 'fallback_on_error must be of type bool, got "false"'),
            ("ablation", 1, "ablation must be of type str, got 1"),
            ("provider", "fallback", 'provider must be of type ProviderSpec, got "fallback"'),
        ],
    )
    def test_mistyped_field_is_rejected(self, name, value, message):
        # No coercion, and a bool is not an int.
        assert_type_rule("loop", {name: value}, message)
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(LoopConfig(), **{name: value})


class TestAblation:
    def test_all_modes_present_and_deterministic(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        assert set(report["modes"]) == set(ABLATIONS)
        again = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        assert canonical_json(report) == canonical_json(again)
        for row in report["modes"].values():
            assert row["feasible"] == len(val)

    def test_no_motif_picks_what_no_retrieval_picks(self, setup):
        # Whole-graph kernels name only core features, so under the fallback
        # no_motif searches the basis no_retrieval does in every iteration.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, iterations=4)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg, modes=("no_retrieval", "no_motif"))
        records = {mode: report["modes"][mode]["history"]["records"] for mode in ("no_retrieval", "no_motif")}
        assert [r["source"] for r in records["no_motif"]] == ["fallback"] * cfg.iterations
        assert [r["expr"] for r in records["no_motif"]] == [r["expr"] for r in records["no_retrieval"]]

    def test_unknown_mode_rejected(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig()
        with pytest.raises(ValueError):
            run_ablation(train, val, kernels, normalizer, vocab, cfg, modes=("nope",))

    @pytest.mark.parametrize(
        ("modes", "message"),
        [
            (("full", "full"), "^ablation mode 'full' is listed twice$"),
            (("full", "nope"), "^unknown ablation mode 'nope'$"),
            ((), "^modes must be a non-empty array$"),
        ],
    )
    def test_bad_mode_list_runs_no_mode(self, setup, monkeypatch, modes, message):
        train, val, vocab, kernels, normalizer = setup
        runs = []
        monkeypatch.setattr(loop, "run_loop", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ValueError, match=message):
            run_ablation(train, val, kernels, normalizer, vocab, LoopConfig(), modes=modes)
        assert runs == []


class TestScheduleMemo:
    """One run evaluates each (graph, expression) pair once and schedules
    each (graph, per-type priority order) once, and reuses the results; the
    train and val corpora share graph names, so a memo keyed by name would
    mix them up."""

    def test_ablation_schedules_each_pair_once(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        caches, passes, scheduled = [], [], []
        real_priorities, real_schedule = loop.priorities, loop.list_schedule

        class RecordedCache(loop.RunCache):
            def __init__(self):
                super().__init__()
                caches.append(self)

        def counting_priorities(terms, columns, size):
            # A stack's columns dict stands for the stack.
            passes.append((id(columns), terms))
            return real_priorities(terms, columns, size)

        def counting_schedule(dag, priority, measure=True):
            scheduled.append((dag, type_order(dag, priority)))
            return real_schedule(dag, priority, measure=measure)

        monkeypatch.setattr(loop, "RunCache", RecordedCache)
        monkeypatch.setattr(loop, "priorities", counting_priorities)
        monkeypatch.setattr(loop, "list_schedule", counting_schedule)
        run_ablation(train, val, kernels, normalizer, vocab, LoopConfig(seed=4))
        (cache,) = caches
        # Terms keys hold (float, str) pairs, order keys node ids.
        evaluated = [key for key in cache.schedules if type(key[1][0]) is tuple]
        orders = [key for key in cache.schedules if type(key[1][0]) is int]
        assert len(evaluated) + len(orders) == len(cache.schedules)
        # One stacked pass per graph set and expression.
        assert len(set(passes)) == len(passes) > 0
        assert all(order is not None for _, order in scheduled)
        # Once per distinct (graph, order), and no schedule for anything else.
        assert Counter(scheduled) == Counter(orders)
        assert len(scheduled) < len(evaluated)

    def test_graphs_with_one_order_stay_apart(self):
        # Two graphs with the same ids and types give the same type order;
        # only the graph in the key keeps their schedules apart, whether
        # they share a stack or are scored one after the other.
        def chain(durations):
            return load_dag(
                {
                    "nodes": [{"id": v, "type": "a", "duration": d} for v, d in enumerate(durations)],
                    "edges": [[0, 1]],
                    "capacities": {"a": 1},
                }
            )

        short, long = chain([1, 5]), chain([2, 5])
        expr = parse_expr("1*crit")
        assert type_order(short, eval_expr(expr, short)) == type_order(long, eval_expr(expr, long))

        def makespans(graph_sets):
            cache = loop.RunCache()
            return [row["makespan"] for dags in graph_sets for row in evaluate_heuristic(expr, dags, cache)]

        assert makespans([[short, long]]) == [6, 7]
        assert makespans([[short], [long]]) == [6, 7]
        assert makespans([[long], [short]]) == [7, 6]

    def test_orders_that_differ_by_rounding_stay_apart(self):
        # The rounding case of the ``_CORE_FEATURES`` comment: on this graph
        # a pressure term, constant per type, still reorders two nodes of one
        # type, so the two sums must not share a memo entry.
        doc = config.default_run_config_document(5)
        doc["train"]["count"] = 24
        doc["val"]["count"] = 200
        _, val = config.build_corpora(config.load_run_config(doc))
        (dag,) = [dag for dag in val if dag.name == "layered-0138"]
        with_pressure = parse_expr("1*crit + 1*fanout - 1*level + 1*pressure + 1*reconv")
        without = parse_expr("1*crit + 1*fanout - 1*level + 1*reconv")
        assert type_order(dag, eval_expr(with_pressure, dag)) != type_order(dag, eval_expr(without, dag))
        for first, second in ((with_pressure, without), (without, with_pressure)):
            cache = loop.RunCache()
            evaluate_heuristic(first, [dag], cache)
            evaluate_heuristic(second, [dag], cache)
            assert evaluate_heuristic(with_pressure, [dag], cache)[0]["makespan"] == 34
            assert evaluate_heuristic(without, [dag], cache)[0]["makespan"] == 32

    def test_shared_memo_leaks_nothing_between_modes(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        for mode in ABLATIONS:
            alone = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
            assert canonical_json(report["modes"][mode]["history"]) == canonical_json(alone.history)

    def test_recorded_evals_match_a_direct_replay(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=3)
        history = run_loop(train, val, kernels, normalizer, vocab, cfg).history
        for row in [history["baseline"], *history["records"]]:
            expr = parse_expr(row["expr"])
            for dag, recorded in zip(val, row["evals"], strict=True):
                schedule = list_schedule(dag, eval_expr(expr, dag), measure=False)
                assert recorded == {
                    "graph": dag.name,
                    "makespan": schedule.makespan,
                    "feasible": schedule.feasible,
                    "score": score_schedule(schedule.makespan, schedule.feasible),
                }


class TestSharedEvaluations:
    """An evaluation repeated in one cache returns the rows it stored, and an
    ablation computes each distinct expression's rows once."""

    def test_repeated_evaluation_returns_the_stored_list(self, setup):
        train, val, vocab, kernels, normalizer = setup
        cache = loop.RunCache()
        rows = evaluate_heuristic(parse_expr("1*crit - 1*level"), val, cache)
        # An equal expression and an equal graph sequence make the same key.
        assert evaluate_heuristic(parse_expr("crit - level"), tuple(val), cache) is rows
        assert rows == evaluate_heuristic(parse_expr("1*crit - 1*level"), val)

    def test_penalty_and_graph_set_key_the_rows(self, setup):
        train, val, vocab, kernels, normalizer = setup
        # Overflowing priorities make a schedule infeasible, so the penalty
        # shows in the scores: an infeasible schedule has makespan 0.
        expr, cache = parse_expr("1e308*crit"), loop.RunCache()
        rows = evaluate_heuristic(expr, val, cache)
        infeasible = [row for row in rows if not row["feasible"]]
        assert infeasible and all(row["score"] == -5000.0 for row in infeasible)
        fewer = evaluate_heuristic(expr, val[1:], cache)
        assert fewer is not rows
        assert fewer == rows[1:]

    def test_ablation_shares_rows_and_feedback_per_expression(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        made = []
        real_feedback = loop.make_feedback

        def counting_feedback(evals, baseline_evals, dags):
            made.append(evals)
            return real_feedback(evals, baseline_evals, dags)

        monkeypatch.setattr(loop, "make_feedback", counting_feedback)
        report = run_ablation(train, val, kernels, normalizer, vocab, LoopConfig(seed=4))
        histories = [row["history"] for row in report["modes"].values()]
        records = [record for history in histories for record in history["records"]]
        first: dict[str, dict] = {}
        for record in records:
            seen = first.setdefault(record["expr"], record)
            assert record["evals"] is seen["evals"]
            assert record["feedback"] == seen["feedback"]
        # Some expression repeats, or this shows nothing.
        assert len(first) < len(records)
        # Once per record, each time on the record's own rows.
        assert len(made) == len(records)
        assert all(evals is record["evals"] for evals, record in zip(made, records))
        baseline = histories[0]["baseline"]["evals"]
        assert all(history["baseline"]["evals"] is baseline for history in histories)


class TestQueryVectors:
    """One ablation embeds its query graphs in one batch and stacks each
    library once; the shared vectors must not change any mode's history."""

    def test_ablation_embeds_each_query_graph_once(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, batch_size=8)
        batches: list[list[Dag]] = []
        real_embed = kernels_module.embed

        def recording_embed(dags, vocab):
            batches.append(list(dags))
            return real_embed(dags, vocab)

        monkeypatch.setattr(kernels_module, "embed", recording_embed)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
        monkeypatch.undo()
        # One call, holding each training graph once, in corpus order.
        assert len(batches) == 1
        assert len(batches[0]) == len(train)
        assert all(embedded is dag for embedded, dag in zip(batches[0], train))
        for mode in ABLATIONS:
            alone = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
            assert canonical_json(report["modes"][mode]["history"]) == canonical_json(alone.history)


def unit_graph(count: int, name: str | None = None) -> Dag:
    """``count`` independent one-cycle nodes of one type with one unit: crit
    is 1 on every node, so scaling it by 1e308 stays finite."""
    nodes = [{"id": v, "type": "a", "duration": 1} for v in range(count)]
    return load_dag({"nodes": nodes, "edges": [], "capacities": {"a": 1}}, name=name)


# No nodes, and a capacity type without nodes.
EMPTY = load_dag({"nodes": [], "edges": [], "capacities": {"a": 1, "b": 2}})
# The conftest diamond, plus a capacity type without nodes.
DIAMOND = load_dag(
    {
        "nodes": [
            {"id": 0, "type": "alu", "duration": 2},
            {"id": 1, "type": "alu", "duration": 3},
            {"id": 2, "type": "mem", "duration": 1},
            {"id": 3, "type": "alu", "duration": 2},
        ],
        "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
        "capacities": {"alu": 1, "mem": 1, "mul": 2},
    }
)

# Ordinary weights, weights that overflow a product or a sum to an infinity,
# and weights whose infinities meet with opposite signs (inf - inf is NaN).
WEIGHTS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.25, 1e-300, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
EXPRESSIONS = st.dictionaries(st.sampled_from(FEATURES), WEIGHTS, min_size=1, max_size=5).map(make_expr)
STACKS = st.lists(st.one_of(dags(), st.just(EMPTY), st.just(DIAMOND)), min_size=1, max_size=5)


class TestStackedOrders:
    """One array pass over a stack of graphs gives each graph the priorities
    of the scalar reference evaluator and the order of the per-graph
    ``type_order``."""

    @given(STACKS, EXPRESSIONS)
    @example([DIAMOND, EMPTY, unit_graph(3)], parse_expr("1e308*crit - 1e308*level"))
    @example([unit_graph(2), DIAMOND], parse_expr("1e308*crit + 1e308*fanout"))
    @example([DIAMOND, EMPTY], parse_expr("2*const - 1*level + 3*pressure"))
    @settings(max_examples=300, deadline=None)
    def test_stacked_orders_equal_the_reference(self, graphs, expr):
        stack = loop._Stack(tuple(graphs))
        p = loop.priorities(expr.terms, stack.columns, len(stack.ids))
        ranked, unordered = stack.rank(p)
        for g, dag in enumerate(graphs):
            start, end = stack.bounds[g], stack.bounds[g + 1]
            by_id = reference_eval_expr(expr, dag)
            stacked, reference = p[start:end], np.array([by_id[v] for v in range(len(dag))], float)
            # Equal bit for bit, signed zeros included; a NaN's payload is
            # not compared.
            assert np.array_equal(stacked, reference, equal_nan=True)
            assert (np.signbit(stacked) == np.signbit(reference)).all()
            order = type_order(dag, reference.tolist())
            if order is None:
                assert g in unordered
            else:
                assert g not in unordered
                assert tuple(ranked[start:end].tolist()) == order

    def test_non_finite_graph_leaves_the_rest_of_its_stack_scheduled(self, monkeypatch):
        # 1e308*crit overflows on the diamond, whose crit reaches 7, and not
        # on graphs of independent one-cycle nodes, whose crit is 1.
        expr = parse_expr("1e308*crit")
        graphs = [unit_graph(3, "u3"), DIAMOND, EMPTY, unit_graph(5, "u5")]
        assert [type_order(dag, eval_expr(expr, dag)) is None for dag in graphs] == [False, True, False, False]
        scheduled = []
        real_schedule = loop.list_schedule

        def counting_schedule(dag, priority, measure=True):
            scheduled.append(dag)
            return real_schedule(dag, priority, measure=measure)

        monkeypatch.setattr(loop, "list_schedule", counting_schedule)
        cache = loop.RunCache()
        rows = evaluate_heuristic(expr, graphs, cache)
        assert [(row["makespan"], row["feasible"], row["score"]) for row in rows] == [
            (3, True, -3.0),
            (0, False, -5000.0),
            (0, True, -0.0),
            (5, True, -5.0),
        ]
        for dag, row in zip(graphs, rows):
            schedule = real_schedule(dag, eval_expr(expr, dag), measure=False)
            assert (row["makespan"], row["feasible"]) == (schedule.makespan, schedule.feasible)
        assert scheduled == graphs
        # The diamond is stored under its terms only; the others under their
        # orders too.
        assert {key[0] for key in cache.schedules if key[1] == expr.terms} == set(graphs)
        assert {key[0] for key in cache.schedules if key[1] != expr.terms} == set(graphs) - {DIAMOND}
        assert cache.schedules[DIAMOND, expr.terms] == (0, False)


class TestRunCache:
    """Everything the cache serves again equals what a fresh computation
    gives."""

    def test_ablation_equals_separate_runs_with_fresh_caches(self, setup):
        train, val, vocab, kernels, normalizer = setup
        for cfg in (LoopConfig(seed=6, iterations=4, batch_size=6, top_m=3), LoopConfig(seed=1, batch_size=30)):
            report = run_ablation(train, val, kernels, normalizer, vocab, cfg)
            for mode in ABLATIONS:
                alone = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
                assert canonical_json(report["modes"][mode]["history"]) == canonical_json(alone.history)

    def test_equal_bases_are_served_the_stored_winner(self, setup, monkeypatch):
        # no_motif's whole-graph kernels name only core features, so its
        # basis equals no_retrieval's in every iteration: its fallback runs
        # no descent of its own, and its history is still the fresh one.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, iterations=4)
        modes = []
        made = Counter()
        real_run_loop, real_make_expr = loop.run_loop, loop.make_expr

        def tracking_run_loop(*args, **kwargs):
            modes.append(args[5].ablation)
            return real_run_loop(*args, **kwargs)

        def counting_make_expr(weights):
            made[modes[-1]] += 1
            return real_make_expr(weights)

        monkeypatch.setattr(loop, "run_loop", tracking_run_loop)
        monkeypatch.setattr(loop, "make_expr", counting_make_expr)
        report = run_ablation(train, val, kernels, normalizer, vocab, cfg, modes=("no_retrieval", "no_motif"))
        monkeypatch.undo()
        assert made["no_retrieval"] > 0 and made["no_motif"] == 0
        for mode in ("no_retrieval", "no_motif"):
            alone = run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
            assert canonical_json(report["modes"][mode]["history"]) == canonical_json(alone.history)

    def test_ablation_stacks_each_graph_sequence_once(self, setup, monkeypatch):
        # The validation set and each distinct batch get one stack, which
        # every mode and every evaluation or search on them reads.
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, iterations=4, batch_size=6)
        built = []
        real_init = loop._Stack.__init__

        def counting_init(stack, dags):
            built.append(dags)
            real_init(stack, dags)

        monkeypatch.setattr(loop._Stack, "__init__", counting_init)
        run_ablation(train, val, kernels, normalizer, vocab, cfg)
        batches = {tuple(sample_batch(train, cfg, iteration)) for iteration in range(cfg.iterations)}
        assert len(batches) > 1
        assert len(built) == len(set(built)) == 1 + len(batches)
        assert set(built) == {tuple(val)} | batches

    def test_batch_scores_are_shared_across_bases(self, setup, monkeypatch):
        # A wider basis revisits the core candidates a core-only search
        # scored on the same batch; no expression is scored on it twice.
        train, *_ = setup
        batch, cache = train[:6], loop.RunCache()
        scored = []
        real_outcomes = loop._Stack.outcomes

        def recording_outcomes(stack, terms, memo):
            scored.append((stack, terms))
            return real_outcomes(stack, terms, memo)

        monkeypatch.setattr(loop._Stack, "outcomes", recording_outcomes)
        core = fallback_synthesize(("crit", "fanout", "level"), batch, cache)
        first = len(scored)
        wider = fallback_synthesize(("crit", "fanout", "level", "reconv"), batch, cache)
        assert len(set(scored)) == len(scored) > first
        monkeypatch.undo()
        assert core == fallback_synthesize(("crit", "fanout", "level"), batch)
        assert wider == fallback_synthesize(("crit", "fanout", "level", "reconv"), batch)

    def test_each_graph_is_ranked_once_per_run(self, setup, monkeypatch):
        train, val, vocab, kernels, normalizer = setup
        cfg = LoopConfig(seed=4, iterations=5, batch_size=8)
        ranked = Counter()
        runs: list[dict] = []
        real_query_vectors, real_retrieve = loop.query_vectors, loop.retrieve_kernels

        def recording_query_vectors(dags, normalizer):
            runs.append(real_query_vectors(dags, normalizer))
            return runs[-1]

        def counting_retrieve(query, *args):
            # The run's own vector object tells which graph is queried.
            ranked[next(dag for dag, vec in runs[-1].items() if vec is query)] += 1
            return real_retrieve(query, *args)

        monkeypatch.setattr(loop, "query_vectors", recording_query_vectors)
        monkeypatch.setattr(loop, "retrieve_kernels", counting_retrieve)
        for mode in ("full", "no_motif"):
            ranked.clear()
            run_loop(train, val, kernels, normalizer, vocab, replace(cfg, ablation=mode))
            batches = [sample_batch(train, cfg, iteration) for iteration in range(cfg.iterations)]
            assert ranked == Counter({dag: 1 for batch in batches for dag in batch})
            assert sum(map(len, batches)) > len(ranked)
