import pytest
from hypothesis import given
from hypothesis import strategies as st

from serrespec import (INT, LAURENT, Coefficient, CoefficientError,
                       CoefficientSyntaxError, build_ring, parse_coefficient)
from serrespec.coefficients import format_terms


def C(mode, terms):
    return Coefficient(mode, terms)


def test_parse_int_literal():
    assert parse_coefficient("3", INT) == C(INT, {0: 3})


def test_parse_laurent_terms():
    assert parse_coefficient("q^-1 + 2q^3 + 1", LAURENT) == \
        C(LAURENT, {-1: 1, 0: 1, 3: 2})


def test_parse_collects_like_terms():
    assert parse_coefficient("2q + q", LAURENT) == C(LAURENT, {1: 3})


def test_parse_whitespace_insensitive():
    assert parse_coefficient(" 2 q ^ 3 + 1 ", LAURENT) == \
        parse_coefficient("2q^3+1", LAURENT)


def test_parse_zero():
    assert not parse_coefficient("0", INT)
    assert not parse_coefficient("0q^2 + 0", LAURENT)


@pytest.mark.parametrize("text,offset", [
    ("-3", 0),
    ("2 + -1", 4),
])
def test_parse_negative_literal_rejected(text, offset):
    with pytest.raises(CoefficientSyntaxError) as exc:
        parse_coefficient(text, LAURENT)
    assert exc.value.offset == offset


def test_parse_q_rejected_in_int_mode():
    with pytest.raises(CoefficientSyntaxError):
        parse_coefficient("2q", INT)


@pytest.mark.parametrize("text", ["", "+", "1 +", "q^", "2x", "1 ++ 2"])
def test_parse_syntax_errors(text):
    with pytest.raises(CoefficientSyntaxError):
        parse_coefficient(text, LAURENT)


def test_int_mode_rejects_exponents():
    with pytest.raises(CoefficientError):
        C(INT, {1: 2})


@pytest.mark.parametrize("mode, terms", [
    (INT, {0: 2.7}),
    (INT, {0: 2.0}),
    (INT, {0: "3"}),
    (LAURENT, {1.5: 1}),
    (LAURENT, {"1": 1}),
])
def test_non_integer_terms_rejected(mode, terms):
    with pytest.raises(CoefficientError):
        C(mode, terms)


# a coefficient with a float exponent cannot be built, so it fails on its
# way into build_ring
NON_INTEGER_VALUES = [
    pytest.param(INT, lambda: 2.7, id="float"),
    pytest.param(INT, lambda: "3", id="string"),
    pytest.param(LAURENT, lambda: C(LAURENT, {1.5: 1}), id="float-exponent"),
]


@pytest.mark.parametrize("mode, value", NON_INTEGER_VALUES)
def test_build_ring_rejects_non_integer_constants(mode, value):
    with pytest.raises(CoefficientError):
        build_ring(["a"], {("a", "a"): {"a": value()}}, mode)


def test_canonical_format():
    assert format_terms([(-1, 1), (0, 1), (3, 2)]) == "q^-1 + 1 + 2q^3"
    assert format_terms([(1, 1)]) == "q"
    assert format_terms([(1, 4)]) == "4q"
    assert format_terms([]) == "0"
    assert format_terms([(0, 12)]) == "12"
    assert str(C(LAURENT, {3: 2, -1: 1, 0: 1})) == "q^-1 + 1 + 2q^3"


laurent_values = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=50),
    max_size=5,
).map(lambda terms: Coefficient(LAURENT, terms))


@given(laurent_values)
def test_format_parse_round_trip(value):
    assert parse_coefficient(format_terms(value.terms.items()), LAURENT) \
        == value
