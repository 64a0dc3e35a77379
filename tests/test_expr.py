import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitmoment.expr import (
    ExprSyntaxError,
    Polynomial,
    TrigAtom,
    count_upto,
    enumerate_multi_indices,
    graded_lex_ranks,
    grlex_key,
    parse_expression,
    parse_polynomial,
)


def poly(nvars, terms):
    return Polynomial(nvars, {tuple(a): Fraction(c) for a, c in terms.items()})


# ---------------------------------------------------------------------------
# graded lexicographic order
# ---------------------------------------------------------------------------


def test_rank_of_zero_index_is_zero():
    assert graded_lex_ranks([(0, 0, 0)]).tolist() == [0]


def test_enumeration_three_vars_matches_reference_prefix():
    got = enumerate_multi_indices(3, 2)[:10]
    expected = [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert got == expected


def test_rank_matches_brute_force_sort_four_vars():
    all_idx = enumerate_multi_indices(4, 4)
    brute = sorted(all_idx, key=grlex_key)
    assert all_idx == brute
    assert graded_lex_ranks(brute).tolist() == list(range(len(brute)))


def test_rank_is_bijection_onto_prefix():
    for n, K in [(1, 6), (2, 5), (3, 4), (5, 3)]:
        ranks = graded_lex_ranks(enumerate_multi_indices(n, K)).tolist()
        assert ranks == list(range(count_upto(n, K)))


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def test_mul_identity():
    p = poly(2, {(1, 0): 3, (0, 2): -1})
    one = Polynomial.constant(2, 1)
    assert one * p == p


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
@pytest.mark.parametrize("other", [0.5, 2.0, None])
def test_arithmetic_with_an_unsupported_operand_raises_type_error(op, other):
    p = Polynomial(1, {(1,): 1})
    with pytest.raises(TypeError):
        op(p, other)
    with pytest.raises(TypeError):
        op(other, p)
    # exact scalars still work in either order
    half = Polynomial.constant(1, Fraction(1, 2))
    assert op(p, Fraction(1, 2)) == op(p, half)
    assert op(Fraction(1, 2), p) == op(half, p)
    assert op(3, p) == op(Polynomial.constant(1, 3), p)


def test_binomial_square():
    x = Polynomial.variable(1, 0)
    assert (x + 1) * (x + 1) == poly(1, {(2,): 1, (1,): 2, (0,): 1})


def test_product_matches_convolution_oracle():
    rng = random.Random(7)

    def random_poly():
        terms = {}
        for alpha in enumerate_multi_indices(2, 3):
            if rng.random() < 0.6:
                terms[alpha] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return Polynomial(2, terms)

    for _ in range(10)[:10]:
        p, q = random_poly(), random_poly()
        expected = {}
        for a, ca in p.terms.items():
            for b, cb in q.terms.items():
                key = (a[0] + b[0], a[1] + b[1])
                expected[key] = expected.get(key, Fraction(0)) + ca * cb
        expected = {k: v for k, v in expected.items() if v}
        assert (p * q).terms == expected
        if p.terms and q.terms:
            assert (p * q).degree() == p.degree() + q.degree()


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def polynomials(draw, nvars=2, max_degree=3):
    idx = enumerate_multi_indices(nvars, max_degree)
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        alpha = draw(st.sampled_from(idx))
        terms[alpha] = draw(small_fracs)
    return Polynomial(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polynomials(nvars=3, max_degree=3))
def test_mixed_partials_commute(p):
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


# ---------------------------------------------------------------------------
# differentiation with trig atoms
# ---------------------------------------------------------------------------


def test_derivative_of_sin_is_cos():
    e = parse_expression("sin(x)", ["x"])
    expected = parse_expression("cos(x)", ["x"])
    assert e.diff(0) == expected


def test_derivative_of_cos_is_minus_sin():
    e = parse_expression("cos(x)", ["x"])
    expected = parse_expression("-sin(x)", ["x"])
    assert e.diff(0) == expected


def test_derivative_chain_rule_two_vars():
    e = parse_expression("sin(2*x1*x2)", ["x1", "x2"])
    expected = parse_expression("2*x2*cos(2*x1*x2)", ["x1", "x2"])
    assert e.diff(0) == expected


def test_derivative_in_an_atom_slot_is_the_plain_partial():
    # x^2 sin(x)^3 cos(x): d/d(sin slot) is 3 x^2 sin(x)^2 cos(x), with no
    # chain-rule term through the base variable
    e = parse_expression("x^2*sin(x)^3*cos(x)", ["x"])
    sin_slot = e.nbase + e.atoms.index(TrigAtom("sin", Fraction(1), (1,)))
    assert e.diff(sin_slot) == parse_expression("3*x^2*sin(x)^2*cos(x)", ["x"])


def central_difference(f, point, var, h=1e-5):
    up = list(point)
    dn = list(point)
    up[var] += h
    dn[var] -= h
    return (f(up) - f(dn)) / (2 * h)


@pytest.mark.parametrize(
    "text,names",
    [
        ("sin(2*x1*x2)", ["x1", "x2"]),
        ("x1^2*cos(x1) + sin(3*x2)", ["x1", "x2"]),
        ("cos(x1)*sin(x1)*(1 - 0.5*cos(x1))", ["x1"]),
        # atom powers, arguments of degree > 1, a partner already registered
        ("sin(x1)^3*cos(0.5*x1^2*x2)", ["x1", "x2"]),
        ("x2*sin(x1^2*x2)*cos(x1^2*x2) - cos(3*x2)^2", ["x1", "x2"]),
    ],
)
def test_derivative_matches_finite_difference(text, names):
    e = parse_expression(text, names)
    rng = random.Random(11)
    for var in range(len(names)):
        d = e.diff(var)
        for _ in range(20):
            p = [rng.uniform(-1.5, 1.5) for _ in names]
            sym = d.evaluate(p)
            num = central_difference(e.evaluate, p, var)
            assert sym == pytest.approx(num, rel=1e-6, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["sin(x1*x2)", "cos(2*x1)", "x1*sin(x2)",
                        "sin(x1)^3*cos(0.5*x1^2*x2)",
                        "x2*sin(x1^2*x2)*cos(x1^2*x2) - cos(3*x2)^2"]))
def test_mixed_partials_commute_with_atoms(text):
    e = parse_expression(text, ["x1", "x2"])
    a = e.diff(0).diff(1)
    b = e.diff(1).diff(0)
    assert a == b


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_polynomial():
    p = parse_polynomial("x^2 + 1", ["x"])
    assert p.evaluate([2.0]) == pytest.approx(5.0)


def test_evaluate_sin_at_zero():
    e = parse_expression("sin(x)", ["x"])
    assert e.evaluate([0.0]) == 0.0


def test_evaluate_mixed_trig_matches_direct_formula():
    e = parse_expression("cos(x)*sin(x)*(1 - 0.5*cos(x))", ["x"])
    x = 0.7
    direct = math.cos(x) * math.sin(x) * (1 - 0.5 * math.cos(x))
    assert e.evaluate([x]) == pytest.approx(direct, abs=1e-12)


def test_evaluate_dimension_mismatch():
    e = parse_expression("x1 + x2", ["x1", "x2"])
    with pytest.raises(ValueError):
        e.evaluate([1.0])


# ---------------------------------------------------------------------------
# parsing and normalization
# ---------------------------------------------------------------------------


def test_decimal_literals_are_exact():
    p = parse_polynomial("9.81*x", ["x"])
    assert p.coefficient((1,)) == Fraction(981, 100)


@pytest.mark.parametrize("text, value", [
    ("cos(0)", "1"),
    ("sin(x - x)", "0"),
    ("2*cos(0*x)", "2"),
])
def test_a_zero_trig_argument_folds_to_a_constant(text, value):
    assert parse_expression(text, ["x"]) == parse_polynomial(value, ["x"])


def test_polynomial_times_atom_polynomial_merges_registries():
    names = ["x"]
    product = parse_polynomial("x", names) * parse_expression("sin(x)", names)
    assert product == parse_expression("x*sin(x)", names)


def test_equality_ignores_the_order_of_the_atom_registries():
    a = parse_expression("sin(x)*cos(x)", ["x"])
    b = parse_expression("cos(x)*sin(x)", ["x"])
    assert a.atoms == b.atoms[::-1]
    assert a == b


def test_negative_frequency_normalizes():
    e = parse_expression("sin(-2*x)", ["x"])
    expected = parse_expression("-sin(2*x)", ["x"])
    assert e == expected
    e2 = parse_expression("cos(-2*x)", ["x"])
    assert e2 == parse_expression("cos(2*x)", ["x"])


def test_atom_identity_is_syntactic():
    a = TrigAtom("sin", Fraction(2), (1, 0))
    b = TrigAtom("sin", Fraction(2), (1, 0))
    c = TrigAtom("sin", Fraction(2, 3), (1, 0))
    assert a == b
    assert a != c and a != a.partner()


def test_parse_rejects_non_monomial_argument():
    with pytest.raises(ExprSyntaxError):
        parse_expression("sin(x + 1)", ["x"])


def test_parse_rejects_undeclared_variable():
    # the column is the name's own, not that of the blank before it
    with pytest.raises(ExprSyntaxError, match="'y' at column 5:"):
        parse_expression("x + y", ["x"])


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_function_names_cannot_name_a_variable(name):
    # "sin" as a variable would parse only as the start of sin(...), so
    # every reference to it would fail
    with pytest.raises(ValueError, match=f"'{name}' is reserved"):
        parse_expression("x", ["x", name])


def test_parse_rejects_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x +* 2", ["x"])
    with pytest.raises(ExprSyntaxError):
        parse_expression("", ["x"])


def test_power_binds_tighter_than_product():
    p = parse_polynomial("2*x^2", ["x"])
    assert p == poly(1, {(2,): 2})
    q = parse_polynomial("-x^2", ["x"])
    assert q == poly(1, {(2,): -1})


@pytest.mark.parametrize("quotient, product", [
    ("1/2", "0.5"),
    ("x/2", "x*0.5"),
    ("(x + 1)/4", "(x + 1)*0.25"),
    ("sin(x/2)", "sin(0.5*x)"),
    ("x/0.5", "x*2"),
    ("x/2/4", "x*0.125"),          # left-associative: (x/2)/4
    ("3*x/2*y", "1.5*x*y"),        # same precedence as *
    ("-x^2/4", "-0.25*x^2"),
], ids=lambda text: text.replace("/", " div "))
def test_division_by_a_constant_is_exact(quotient, product):
    got = parse_expression(quotient, ["x", "y"])
    assert got == parse_expression(product, ["x", "y"])
    assert all(isinstance(c, Fraction) for c in got.terms.values())


@pytest.mark.parametrize("text, message, column", [
    ("x/y", "divisor must be a numeric constant", 3),
    ("x/(2*y)", "divisor must be a numeric constant", 3),
    ("1 + x / sin(x)", "divisor must be a numeric constant", 9),
    ("x/0", "division by zero", 3),
    ("x/(y - y)", "division by zero", 3),
], ids=lambda value: str(value).replace("/", " div "))
def test_division_by_a_non_constant_or_zero_is_rejected(text, message, column):
    with pytest.raises(ExprSyntaxError, match=f"{message} at column {column}:"):
        parse_expression(text, ["x", "y"])
