import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from serrespec import (INT, LAURENT, Coefficient, CoefficientError,
                       CoefficientSyntaxError, add_coefficients, build_ring,
                       format_coefficient, multiply_coefficients,
                       parse_coefficient, ring_element)

from conftest import SEED


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


def test_add_identity_and_examples():
    zero = Coefficient.zero(INT)
    assert add_coefficients(C(INT, {0: 1}), zero) == C(INT, {0: 1})
    assert add_coefficients(C(LAURENT, {-1: 1}), C(LAURENT, {-1: 2, 0: 1})) \
        == C(LAURENT, {-1: 3, 0: 1})
    assert add_coefficients(C(INT, {0: 2}), C(INT, {0: 3})) == C(INT, {0: 5})


def test_multiply_examples():
    assert multiply_coefficients(C(LAURENT, {1: 1, -1: 1}), C(LAURENT, {1: 1})) \
        == C(LAURENT, {2: 1, 0: 1})
    assert not multiply_coefficients(C(LAURENT, {5: 7}), Coefficient.zero(LAURENT))
    assert multiply_coefficients(C(INT, {0: 2}), C(INT, {0: 3})) == C(INT, {0: 6})


def test_mode_mismatch():
    with pytest.raises(CoefficientError):
        add_coefficients(C(INT, {0: 1}), C(LAURENT, {0: 1}))
    with pytest.raises(CoefficientError):
        multiply_coefficients(C(INT, {0: 1}), C(LAURENT, {0: 1}))


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
# way into build_ring and ring_element alike
NON_INTEGER_VALUES = [
    pytest.param(INT, lambda: 2.7, id="float"),
    pytest.param(INT, lambda: "3", id="string"),
    pytest.param(LAURENT, lambda: C(LAURENT, {1.5: 1}), id="float-exponent"),
]


@pytest.mark.parametrize("mode, value", NON_INTEGER_VALUES)
def test_build_ring_rejects_non_integer_constants(mode, value):
    with pytest.raises(CoefficientError):
        build_ring(["a"], {("a", "a"): {"a": value()}}, mode)


@pytest.mark.parametrize("mode, value", NON_INTEGER_VALUES)
def test_ring_element_rejects_non_integer_coefficients(mode, value):
    ring = build_ring(["a"], {("a", "a"): {"a": 1}}, mode)
    with pytest.raises(CoefficientError):
        ring_element(ring, {"a": value()})


def test_canonical_format():
    assert format_coefficient(C(LAURENT, {-1: 1, 0: 1, 3: 2})) == "q^-1 + 1 + 2q^3"
    assert format_coefficient(C(LAURENT, {1: 1})) == "q"
    assert format_coefficient(C(LAURENT, {1: 4})) == "4q"
    assert format_coefficient(Coefficient.zero(INT)) == "0"
    assert format_coefficient(C(INT, {0: 12})) == "12"


laurent_values = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=50),
    max_size=5,
).map(lambda terms: Coefficient(LAURENT, terms))


@given(laurent_values)
def test_format_parse_round_trip(value):
    assert parse_coefficient(format_coefficient(value), LAURENT) == value


@given(laurent_values, laurent_values)
def test_product_of_nonzero_is_nonzero(a, b):
    # the no-zero-divisors property of the positive semiring
    if a and b:
        assert a * b
    else:
        assert not a * b


def _random_coeff(rng, mode):
    if mode == INT:
        return Coefficient(INT, {0: rng.randint(0, 9)})
    return Coefficient(
        LAURENT,
        {rng.randint(-4, 4): rng.randint(1, 9)
         for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("mode", [INT, LAURENT])
def test_semiring_laws_randomized(mode):
    # associativity, commutativity, distributivity on >= 10^4 triples
    rng = random.Random(SEED)
    for _ in range(10_000):
        a = _random_coeff(rng, mode)
        b = _random_coeff(rng, mode)
        c = _random_coeff(rng, mode)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
