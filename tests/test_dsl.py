import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dags, reference_eval_expr, scale_expr
from priosynth.bench import standard_battery
from priosynth.dsl import (
    FEATURES,
    ExprError,
    PriorityExpr,
    dump_heuristic,
    eval_expr,
    load_heuristic_text,
    make_expr,
    parse_expr,
    print_expr,
)

weights_strategy = st.dictionaries(
    st.sampled_from(FEATURES),
    st.one_of(
        st.integers(-8, 8).map(float),
        st.floats(-8, 8, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=len(FEATURES),
)

finite_weights = st.floats(-8, 8, allow_nan=False, allow_infinity=False)

# Every draw weights const, duration and pressure, the three features that
# are not a plain StatsTable column lookup in the reference evaluator.
column_weights_strategy = st.fixed_dictionaries(
    {"const": finite_weights, "duration": finite_weights, "pressure": finite_weights},
    optional={name: finite_weights for name in FEATURES if name not in ("const", "duration", "pressure")},
)


def bits(values) -> list[str]:
    """Exact float identity, sign of zero included."""
    return [float(x).hex() for x in values]


def reference_column(expr, dag) -> list[str]:
    reference = reference_eval_expr(expr, dag)
    return bits(reference[v] for v in range(len(dag)))


class TestParse:
    def test_basic_terms(self):
        expr = parse_expr("2*crit + 0.5*fanout - 1*level")
        assert expr.terms == ((2.0, "crit"), (0.5, "fanout"), (-1.0, "level"))

    def test_bare_feature_weight_one(self):
        assert parse_expr("crit").terms == ((1.0, "crit"),)

    def test_bare_number_is_const(self):
        assert parse_expr("3.5").terms == ((3.5, "const"),)

    def test_leading_sign(self):
        assert parse_expr("-crit").terms == ((-1.0, "crit"),)
        assert parse_expr("+2*slack").terms == ((2.0, "slack"),)

    def test_duplicate_features_merge(self):
        assert parse_expr("crit + 2*crit").terms == ((3.0, "crit"),)

    def test_cancellation_collapses_to_zero_const(self):
        assert parse_expr("crit - crit").terms == ((0.0, "const"),)

    def test_terms_sorted_by_feature(self):
        expr = parse_expr("1*slack + 1*crit + 1*level")
        assert [name for _, name in expr.terms] == ["crit", "level", "slack"]

    def test_scientific_notation(self):
        assert parse_expr("1e-2*crit").terms == ((0.01, "crit"),)

    def test_whitespace_tolerated(self):
        assert parse_expr("  2*crit   -  1*level ") == parse_expr("2*crit - 1*level")

    def test_minus_binds_to_following_term(self):
        # A separator minus must not be folded into the number token.
        assert parse_expr("1-2*crit").terms == ((1.0, "const"), (-2.0, "crit"))

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "# comment", "bogus_feature", "2**crit", "crit +", "- ", "crit level",
         "2*", "*crit", "crit + + level", "1..5*crit"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExprError):
            parse_expr(text)

    def test_unknown_feature_named_in_error(self):
        with pytest.raises(ExprError, match="bogus"):
            parse_expr("1*bogus")


class TestPrint:
    def test_canonical_reference_form(self):
        assert print_expr(parse_expr("1*crit + 1*fanout - 1*level")) == "1*crit + 1*fanout - 1*level"

    def test_integral_floats_print_as_ints(self):
        assert print_expr(make_expr({"crit": 2.0})) == "2*crit"

    def test_fractions_keep_repr(self):
        assert print_expr(make_expr({"crit": 0.5})) == "0.5*crit"

    def test_leading_negative(self):
        assert print_expr(make_expr({"level": -1.0})) == "-1*level"

    def test_zero_expr_prints_zero_const(self):
        assert print_expr(make_expr({})) == "0*const"

    @given(weights_strategy)
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, weights):
        expr = make_expr(weights)
        assert parse_expr(print_expr(expr)) == expr

    @given(weights_strategy, weights_strategy)
    @settings(max_examples=150, deadline=None)
    def test_printing_injective_on_canonical_forms(self, wa, wb):
        ea, eb = make_expr(wa), make_expr(wb)
        if ea != eb:
            assert print_expr(ea) != print_expr(eb)


class TestMakeMerge:
    def test_make_drops_zeros(self):
        assert make_expr({"crit": 1.0, "level": 0.0}).terms == ((1.0, "crit"),)

    def test_make_rejects_unknown(self):
        with pytest.raises(ExprError):
            make_expr({"nope": 1.0})

    def test_make_rejects_non_finite(self):
        with pytest.raises(ExprError):
            make_expr({"crit": float("nan")})
        with pytest.raises(ExprError):
            make_expr({"crit": math.inf})

    def test_scale(self):
        assert scale_expr(parse_expr("2*crit"), 0.5).terms == ((1.0, "crit"),)
        assert scale_expr(parse_expr("2*crit"), 0.0).terms == ((0.0, "const"),)

    def test_coefficient_lookup(self):
        expr = parse_expr("2*crit - 1*level")
        weights = {name: weight for weight, name in expr.terms}
        assert weights["crit"] == 2.0
        assert "slack" not in weights


class TestEval:
    def test_matches_manual_computation(self, diamond):
        expr = parse_expr("2*crit + 0.5*fanout - 1*level")
        values = eval_expr(expr, diamond)
        stats = diamond.stats()
        for v in range(len(diamond)):
            expected = 2 * stats.crit[v] + 0.5 * stats.fanout[v] - stats.level[v]
            assert values[v] == pytest.approx(expected)

    def test_const_and_duration_and_pressure(self, diamond):
        values = eval_expr(parse_expr("1*duration + 10*pressure + 100"), diamond)
        stats = diamond.stats()
        for rec in diamond.nodes:
            expected = rec.duration + 10 * stats.pressure[rec.op_type] + 100
            assert values[rec.id] == pytest.approx(expected)

    @given(dags(), weights_strategy)
    @settings(max_examples=80, deadline=None)
    def test_linearity(self, dag, weights):
        expr = make_expr(weights)
        doubled = scale_expr(expr, 2.0)
        base = eval_expr(expr, dag)
        twice = eval_expr(doubled, dag)
        for v in range(len(dag)):
            assert twice[v] == pytest.approx(2 * base[v])

    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_reference_at_scale(self, scale_dags, seed):
        for dag in scale_dags:
            for _, expr in standard_battery(seed):
                values = eval_expr(expr, dag)
                assert isinstance(values, list)
                assert bits(values) == reference_column(expr, dag)

    @given(dags(), column_weights_strategy)
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_reference(self, dag, weights):
        expr = make_expr(weights)
        assert bits(eval_expr(expr, dag)) == reference_column(expr, dag)


class TestHeuristicFiles:
    def test_comments_and_blanks_skipped(self):
        expr = load_heuristic_text("# header\n\n# more\n2*crit - 1*level\n")
        assert expr == parse_expr("2*crit - 1*level")

    def test_empty_file_rejected(self):
        with pytest.raises(ExprError):
            load_heuristic_text("# only a comment\n")

    def test_dump_round_trips(self):
        expr = parse_expr("1*crit + 1*fanout - 1*level")
        text = dump_heuristic(expr, "two\nlines")
        assert text.startswith("# two\n# lines\n")
        assert load_heuristic_text(text) == expr

    def test_frozen(self):
        expr = parse_expr("1*crit")
        with pytest.raises(AttributeError):
            expr.terms = ()
        assert isinstance(expr, PriorityExpr)
