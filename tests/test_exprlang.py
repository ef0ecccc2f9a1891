"""Expression language: parsing, precedence, evaluation, pretty-printing."""

import math

import numpy as np
import pytest

from fracimpulse.exprlang import (
    BinOp,
    Call,
    EvalError,
    Num,
    ParseError,
    Unary,
    Var,
    compile_expr,
    evaluate,
    monomial,
    parse,
    pretty,
    variables,
)

ENV = {"t": 0.7, "x": 2.0, "xr": -1.5, "xtsup": 3.0, "x1": 2.0, "x2": 0.5}

PRECEDENCE_CASES = [
    ("2+3*4", 14.0),
    ("2*3+4", 10.0),
    ("2-3-4", -5.0),
    ("2-(3-4)", 3.0),
    ("12/3/2", 2.0),
    ("12/(3/2)", 8.0),
    ("2*3^2", 18.0),
    ("(2*3)^2", 36.0),
    ("2^3^2", 512.0),
    ("(2^3)^2", 64.0),
    ("-2^2", -4.0),
    ("(-2)^2", 4.0),
    ("2^-1", 0.5),
    ("-2*3", -6.0),
    ("-(2*3)", -6.0),
    ("2--3", 5.0),
    ("--2", 2.0),
    ("1+2^2*3", 13.0),
    ("exp(0)", 1.0),
    ("sqrt(2)^2", 2.0000000000000004),
    ("abs(-3)+1", 4.0),
    ("cos(0)*sin(0)", 0.0),
    ("ln(exp(2))", 2.0),
    ("1.5e2+0.5", 150.5),
    ("2*x+t", 4.7),
    ("xtsup/(1+xtsup)", 0.75),
    ("x^2-xr", 5.5),
]


@pytest.mark.parametrize("source,expected", PRECEDENCE_CASES)
def test_precedence_table(source, expected):
    assert evaluate(parse(source), ENV) == pytest.approx(expected, abs=1e-15)


def test_power_right_associative_tree():
    assert parse("t^x^xr") == BinOp("^", Var("t"), BinOp("^", Var("x"), Var("xr")))


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Unary("-", BinOp("^", Var("x"), Num(2.0)))


def test_component_variables():
    tree = parse("x1*xr2+x2")
    assert variables(tree) == frozenset({"x1", "xr2", "x2"})
    assert evaluate(tree, {"x1": 2.0, "xr2": 3.0, "x2": 0.5}) == 6.5


def test_variables_set():
    assert variables(parse("exp(-t)*xtsup/(1+xtsup)")) == frozenset({"t", "xtsup"})
    assert variables(parse("0.5")) == frozenset()


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        ["", "   ", "2+", "(2", "2)", "foo", "spam(1)", "2 @ 3", "1e999", "2 3", "*2"],
    )
    def test_rejects(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="position 2"):
            parse("2+@")

    def test_unknown_function_lists_known(self):
        with pytest.raises(ParseError, match="sqrt"):
            parse("tan(1)")


class TestEvalErrors:
    @pytest.mark.parametrize(
        "source,env",
        [
            ("1/x", {"x": 0.0}),
            ("x^x", {"x": -2.5}),
            ("0^-1", {}),
            ("sqrt(x)", {"x": -1.0}),
            ("ln(x)", {"x": 0.0}),
            ("exp(x)", {"x": 1000.0}),
            ("x", {}),
        ],
    )
    def test_raises(self, source, env):
        with pytest.raises(EvalError):
            evaluate(parse(source), env)

    def test_error_names_subexpression(self):
        with pytest.raises(EvalError, match=r"1\.0/x"):
            evaluate(parse("2 + 1/x"), {"x": 0.0})


class TestPretty:
    @pytest.mark.parametrize(
        "source,rendered",
        [
            ("2*(3+4)", "2.0*(3.0 + 4.0)"),
            ("2*3+4", "2.0*3.0 + 4.0"),
            ("2^(3^2)", "2.0^3.0^2.0"),
            ("(2^3)^2", "(2.0^3.0)^2.0"),
            ("-x^2", "-x^2.0"),
            ("(-x)^2", "(-x)^2.0"),
            ("exp(-t)*x", "exp(-t)*x"),
        ],
    )
    def test_minimal_parentheses(self, source, rendered):
        assert pretty(parse(source)) == rendered

    def test_round_trip_reparses_identically(self):
        for source, _ in PRECEDENCE_CASES:
            tree = parse(source)
            assert parse(pretty(tree)) == tree


def _random_tree(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Num(float(round(rng.random() * 10, 3)))
        return Var(str(rng.choice(["t", "x", "xr", "xtsup", "x1", "xr2"])))
    if roll < 0.4:
        return Unary("-", _random_tree(rng, depth - 1))
    if roll < 0.55:
        func = str(rng.choice(["exp", "sin", "cos", "abs", "sqrt", "ln"]))
        return Call(func, _random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_pretty_parse_round_trip_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(200):
        tree = _random_tree(rng, 4)
        assert parse(pretty(tree)) == tree


def test_evaluate_agrees_after_round_trip():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(300):
        tree = _random_tree(rng, 3)
        try:
            expected = evaluate(tree, ENV)
        except EvalError:
            continue
        hits += 1
        assert evaluate(parse(pretty(tree)), ENV) == expected
    assert hits > 100  # the generator must produce plenty of evaluable trees


def test_numbers_are_nonnegative_literals():
    tree = parse("-2")
    assert tree == Unary("-", Num(2.0))
    assert math.copysign(1.0, evaluate(tree, {})) == -1.0


# every operator and function, alone and nested
COMPILED_CORPUS = [
    "x + t",
    "x - t",
    "x*t",
    "x/t",
    "x^t",
    "x^2",
    "(-2)^3 + xr^2",
    "2^3^t",
    "-x",
    "--x",
    "exp(-t)",
    "sin(x)",
    "cos(xr)",
    "abs(xr)",
    "sqrt(x)",
    "ln(x)",
    "exp(-t)*xtsup/((1+exp(t))*(1+xtsup))",
    "x1*xr2 - x2/(1 + t^2)",
    "sqrt(abs(sin(xr)) + ln(1 + x^2))",
    "0.5",
]


def _points(rng, n):
    return {
        "t": rng.uniform(0.1, 2.0, n),
        "x": rng.uniform(0.1, 3.0, n),
        "xr": rng.uniform(-2.0, 2.0, n),
        "xtsup": rng.uniform(0.0, 3.0, n),
        "x1": rng.uniform(-1.0, 1.0, n),
        "x2": rng.uniform(-1.0, 1.0, n),
        "xr2": rng.uniform(-1.0, 1.0, n),
    }


@pytest.mark.parametrize("source", COMPILED_CORPUS)
def test_compiled_matches_tree_walk(source):
    tree = parse(source)
    fn = compile_expr(tree)
    env = _points(np.random.default_rng(11), 64)
    walked = np.array(
        [evaluate(tree, {k: v[i] for k, v in env.items()}) for i in range(64)]
    )
    batched = fn(env)
    assert batched.shape == (64,)
    np.testing.assert_allclose(batched, walked, rtol=1e-14, atol=0.0)
    for i in range(64):
        scalar = fn({k: float(v[i]) for k, v in env.items()})
        assert np.shape(scalar) == ()
        assert scalar == pytest.approx(walked[i], rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "source,good,bad",
    [
        ("2 + 1/x", 1.0, 0.0),
        ("0^-1 + x", 1.0, 1.0),
        ("(-2)^(x/4)", 4.0, 2.0),
        ("x*sqrt(-1)", 1.0, 1.0),
        ("ln(x - 1)", 2.0, 1.0),
        ("exp(1000*x)", 0.5, 1.0),
        ("(x - 1)^-2", 2.0, 1.0),
    ],
)
def test_compiled_domain_errors_match_tree_walk(source, good, bad):
    tree = parse(source)
    with pytest.raises(EvalError) as walked:
        evaluate(tree, {"x": bad})
    fn = compile_expr(tree)
    with pytest.raises(EvalError) as scalar:
        fn({"x": bad})
    assert str(scalar.value) == str(walked.value)
    with pytest.raises(EvalError) as batched:
        fn({"x": np.array([good, good, bad, good])})
    assert str(batched.value) == str(walked.value)


@pytest.mark.parametrize(
    "xs,reason",
    [([4.0, 2.0, 1.0], "square root"), ([4.0, 1.0, 2.0], "division by zero")],
)
def test_compiled_batch_raises_first_failing_point(xs, reason):
    fn = compile_expr(parse("1/(x - 1) + sqrt(x - 3)"))
    with pytest.raises(EvalError, match=reason):
        fn({"x": np.array(xs)})


def test_compiled_unbound_variable():
    with pytest.raises(EvalError, match="unbound variable 'xr'"):
        compile_expr(parse("x + xr"))({"x": np.ones(3)})


def test_compiled_broadcasts_over_leading_axes():
    fn = compile_expr(parse("x*t + xr"))
    out = fn({"t": np.arange(3.0)[:, None], "x": np.ones((3, 2)), "xr": 1.0})
    assert out.shape == (3, 2)
    assert out.tolist() == [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]


@pytest.mark.parametrize(
    "source, var, expected",
    [
        # forms the convergence-order matcher (var t) accepted
        ("5", "t", (5.0, 0.0)),
        ("t", "t", (1.0, 1.0)),
        ("-t", "t", (-1.0, 1.0)),
        ("t^2.5", "t", (1.0, 2.5)),
        ("2*t^0.5", "t", (2.0, 0.5)),
        ("t^2*3", "t", (3.0, 2.0)),
        ("-t^2", "t", (-1.0, 2.0)),
        ("(1*t)^2", "t", (1.0, 2.0)),
        ("2*3", "t", (6.0, 0.0)),
        # forms the CLI's linear-coefficient matcher (var x) accepted
        ("x", "x", (1.0, 1.0)),
        ("-x", "x", (-1.0, 1.0)),
        ("2*x", "x", (2.0, 1.0)),
        ("x*2", "x", (2.0, 1.0)),
        ("x/4", "x", (0.25, 1.0)),
        ("-(x*0.5)", "x", (-0.5, 1.0)),
        ("2*(3*x)", "x", (6.0, 1.0)),
        ("-x*4", "x", (-4.0, 1.0)),
        # rejected by both
        ("x*x", "x", None),
        ("t^x", "t", None),
        ("(2*t)^2", "t", None),
        ("x/0", "x", None),
        ("3", "x", (3.0, 0.0)),  # a constant, so not linear in x (b != 1)
        ("sin(t)", "t", None),
        ("t+1", "t", None),
        ("xr", "x", None),
        # accepted only by the union of the two grammars
        ("t/2", "t", (0.5, 1.0)),
        ("(2*3)*x", "x", (6.0, 1.0)),
        ("x^1", "x", (1.0, 1.0)),
        ("-2*x", "x", (-2.0, 1.0)),
    ],
)
def test_monomial(source, var, expected):
    assert monomial(parse(source), var) == expected
