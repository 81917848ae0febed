import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfk import expr as ex
from wfk.expr import (
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    evaluate_jet,
    parse_expression,
)

from conftest import scalar


class TestParsing:
    def test_zero_literal(self):
        tape = scalar("0", 4)
        assert tape.jets(np.zeros(4))[0] == 0.0

    def test_exp_of_scaled_sum(self):
        ast = parse_expression("exp(2*(x3+x4))", 4)
        (mul,) = ast.children
        (two, total) = mul.children
        assert (ast.kind, mul.kind, two.value, total.kind) == ("exp", "mul", 2.0, "add")
        assert [x.index for x in total.children] == [2, 3]

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("1*e", 4)
        assert "e" in str(err.value)
        assert err.value.span == (2, 3)

    def test_coordinate_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x5", 4)

    def test_truncated_input_has_span(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("exp(2*(x3+", 4)
        assert err.value.span[0] >= 9

    def test_power_requires_integer_literal(self):
        # one message for whatever follows '^' that is not a run of digits
        for text, span in [
            ("x1^x2", (3, 5)), ("x1^-2", (3, 4)), ("x1^2.5", (3, 6)),
            ("x1^1e3", (3, 6)), ("x1^(2)", (3, 4)), ("x1^", (3, 3)),
        ]:
            with pytest.raises(ExprSyntaxError) as err:
                parse_expression(text, 4)
            assert err.value.message == "power exponent must be a nonnegative integer literal"
            assert err.value.span == span

    @pytest.mark.parametrize(
        "text, char, at",
        [
            ("x²", "²", 1), ("x١", "١", 1), ("exp(2*x٣)", "٣", 7), ("2²", "²", 1),
            ("é", "é", 0),
        ],
    )
    def test_non_ascii_is_an_unexpected_character(self, text, char, at):
        # str.isdigit and str.isalpha take these; the grammar is ASCII
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, 4)
        assert err.value.message == f"unexpected character {char!r}"
        assert err.value.span == (at, at + 1)

    def test_digit_runs_of_any_length(self):
        # leading zeros are dropped before int(), which refuses over 4300 digits
        assert parse_expression("x01", 4).index == 0
        assert parse_expression("x" + "0" * 5000 + "3", 4).index == 2
        assert parse_expression("x1^" + "0" * 5000 + "2", 4).index == 2
        for name in ("x0", "x00", "x" + "1" * 5000, "x" + "0" * 5000 + "5"):
            with pytest.raises(ExprSyntaxError) as err:
                parse_expression(name, 4)
            assert err.value.message.startswith("coordinate index out of range")
            assert err.value.span == (0, len(name))

    def test_precedence(self):
        tape = scalar("1+2*x1^2", 2)
        assert tape.jets(np.array([3.0, 0.0]))[0] == 19.0

    def test_unary_minus(self):
        tape = scalar("-x1*x2", 2)
        assert tape.jets(np.array([2.0, 5.0]))[0] == -10.0


class TestJets:
    def test_exp_hand_values(self):
        tape = scalar("exp(2*(x3+x4))", 4)
        value, grad, hess = tape.jets(np.zeros(4))
        assert value == pytest.approx(1.0)
        assert grad == pytest.approx([0.0, 0.0, 2.0, 2.0])
        assert hess[2:, 2:] == pytest.approx(4.0 * np.ones((2, 2)))
        assert np.all(hess[:2, :] == 0.0)

    def test_constant(self):
        value, grad, hess = scalar("5", 3).jets(np.ones(3))
        assert value == 5.0
        assert np.all(grad == 0.0)
        assert np.all(hess == 0.0)

    def test_product(self):
        tape = scalar("x1*x2", 4)
        value, grad, hess = tape.jets(np.array([1.0, 2.0, 0, 0]))
        assert value == 2.0
        assert grad == pytest.approx([2.0, 1.0, 0.0, 0.0])
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        assert hess == pytest.approx(expected)

    def test_hessian_exactly_symmetric(self):
        tape = scalar("exp(x1*x2)+sqrt(1+x1^2)/(2+x2^2)", 2)
        hess = tape.jets(np.array([0.3, -0.7]))[2]
        assert np.array_equal(hess, hess.T)

    def test_domain_errors_carry_span(self):
        with pytest.raises(ExprDomainError) as err:
            scalar("1/x1", 1).jets(np.zeros(1))
        assert err.value.span == (0, 4)
        with pytest.raises(ExprDomainError):
            scalar("log(x1)", 1).jets(np.zeros(1))
        with pytest.raises(ExprDomainError):
            scalar("sqrt(-1+x1)", 1).jets(np.zeros(1))


def _random_source(rng, dim, depth):
    """Random expression source, each operand in parentheses, reaching every
    node kind with arguments kept inside all function domains."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, dim, 0.5, 2.0)
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "exp", "sqrt", "log"])
    a = _random_source(rng, dim, depth - 1)
    if kind in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return f"({a}){op}({_random_source(rng, dim, depth - 1)})"
    if kind == "div":
        # keep the denominator bounded away from zero
        return f"({a})/(2+({_bounded(rng, dim)})^2)"
    if kind == "neg":
        return f"-({a})"
    if kind == "pow":
        return f"({_bounded(rng, dim)})^{rng.integers(0, 4)}"
    if kind == "exp":
        return f"exp(0.5*({_bounded(rng, dim)}))"
    return f"{kind}(1.5+0.25*({_bounded(rng, dim)}))"


def _bounded(rng, dim):
    # a coordinate or small constant; |value| <= ~1 on the sample box
    return _leaf(rng, dim, 0.7, 1.0)


def _leaf(rng, dim, p_var, size):
    """A coordinate with probability ``p_var``, else a constant in [-size, size]."""
    if rng.random() < p_var:
        return f"x{rng.integers(dim) + 1}"
    return repr(float(rng.uniform(-size, size)))


def _random_ast(rng, dim, depth):
    return parse_expression(_random_source(rng, dim, depth), dim)


class TestDerivativeProperty:
    def test_jets_match_finite_differences(self):
        rng = np.random.default_rng(2024)
        dim = 3
        step = 1e-4
        checked = 0
        while checked < 200:
            tape = scalar(_random_source(rng, dim, 3), dim)
            p = rng.uniform(-0.8, 0.8, dim)
            try:
                value, grad, hess = tape.jets(p)
            except ExprDomainError:
                continue
            if abs(value) > 1e6 or np.abs(hess).max() > 1e6:
                continue
            scale = max(1.0, abs(value), np.abs(grad).max())
            for a in range(dim):
                dp = np.zeros(dim)
                dp[a] = step
                (vplus, gplus, _), (vminus, gminus, _) = tape.jets(p + dp), tape.jets(p - dp)
                fd = (vplus - vminus) / (2 * step)
                assert grad[a] == pytest.approx(fd, rel=1e-6, abs=1e-6 * scale)
                fd_row = (gplus - gminus) / (2 * step)
                assert hess[a] == pytest.approx(
                    fd_row, rel=1e-6, abs=1e-6 * scale
                )
            checked += 1


class TestRoundTrip:
    def test_random_sources_reach_every_node_kind(self):
        # the expressions that the random sweeps of this file draw
        rng = np.random.default_rng(7)
        kinds = set()
        for _ in range(100):
            stack = [_random_ast(rng, 3, 3)]
            while stack:
                node = stack.pop()
                kinds.add(node.kind)
                stack.extend(node.children)
        want = {"const", "var", "neg", "add", "sub", "mul", "div", "pow", "exp", "sqrt", "log"}
        assert kinds == want

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    @example("x²")
    @example("x١")
    @example("2²")
    def test_parse_total_on_printable_input(self, text):
        # any text parses or raises ExprError; a character past ASCII that is
        # not whitespace is an unexpected character, unless a number before it
        # is malformed
        bad = [i for i, ch in enumerate(text) if not ch.isascii() and not ch.isspace()]
        try:
            parse_expression(text, 4)
        except ExprError as err:
            if bad:
                assert err.span == (bad[0], bad[0] + 1) or err.span[1] <= bad[0]
                assert err.message.startswith(("unexpected character", "malformed", "number"))
        else:
            assert not bad


class TestThirdOrder:
    def test_lower_orders_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tape = scalar(_random_source(rng, 3, 3), 3)
            p = rng.uniform(-0.8, 0.8, 3)
            try:
                two = tape.jets(p)
            except ExprDomainError:
                continue
            one, three = tape.jets(p, order=1), tape.jets(p, order=3)
            assert len(one) == 2 and len(two) == 3
            assert one[0] == two[0] == three[0]
            assert np.array_equal(one[1], two[1]) and np.array_equal(three[1], two[1])
            assert np.array_equal(three[2], two[2])

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        dim = 3
        xs = sympy.symbols(f"x1:{dim + 1}")

        def to_sympy(node):
            k, ch = node.kind, node.children
            if k == "const":
                return sympy.Float(node.value, 30)
            if k == "var":
                return xs[node.index]
            args = [to_sympy(c) for c in ch]
            ops = {
                "neg": lambda a: -a,
                "add": lambda a, b: a + b,
                "sub": lambda a, b: a - b,
                "mul": lambda a, b: a * b,
                "div": lambda a, b: a / b,
                "pow": lambda a: a**node.index,
                "exp": sympy.exp,
                "sqrt": sympy.sqrt,
                "log": sympy.log,
            }
            return ops[k](*args)

        rng = np.random.default_rng(5)
        cases = [
            (_random_ast(rng, dim, 3), rng.uniform(-0.8, 0.8, dim)) for _ in range(60)
        ]
        zero = np.zeros(dim)
        half = np.array([0.5, -0.3, 0.2])
        for src, p in [
            ("x1^2", zero), ("x1^3", zero), ("x1^2*x2", zero), ("x1^5", half),
            ("1/x1", half), ("x2/(x1*x3)", half), ("log(x1)", half),
            ("log(x1*x1+x2)", half), ("sqrt(x1)", half), ("sqrt(x1+x2*x3)", half),
            ("exp(x1*x2)*x3", half),
        ]:
            cases.append((parse_expression(src, dim), p))
        checked = 0
        for ast, p in cases:
            try:
                tape = ex.compile_tape((ast,), dim)
                third = _dense3(tape, tape.jets(p, order=3)[3])
            except ExprDomainError:
                continue
            f = to_sympy(ast)
            at = dict(zip(xs, (sympy.Float(float(x), 30) for x in p)))
            want = np.empty((dim, dim, dim))
            for idx in itertools.combinations_with_replacement(range(dim), 3):
                d = sympy.diff(f, *(xs[i] for i in idx)).evalf(30, subs=at)
                for perm in itertools.permutations(idx):
                    want[perm] = float(d)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(third - want).max() <= 1e-12 * scale, ast
            checked += 1
        assert checked >= 50

    def test_square_at_zero(self):
        # the third coefficient of x^2 is 0; x^(2-3) must not be evaluated
        d3 = scalar("x1^2", 1).jets(np.zeros(1), order=3)[3]
        assert np.all(d3 == 0.0)
        d3 = scalar("x1^3", 1).jets(np.zeros(1), order=3)[3]
        assert d3[0, 0, 0] == 6.0


class TestNonFinite:
    @pytest.mark.parametrize("third", [False, True])
    def test_exp_overflow_is_domain_error(self, third):
        tape = scalar("1+exp(exp(x1+10))", 2)
        with pytest.raises(ExprDomainError) as err:
            tape.jets(np.zeros(2), order=3 if third else 2)
        assert err.value.span == (2, 17)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_exp_derivative_overflow_is_domain_error(self):
        # value finite, Hessian 4 e^709 overflows
        with pytest.raises(ExprDomainError):
            scalar("exp(2*x1+709)", 1).jets(np.zeros(1))
        # value, gradient and Hessian finite; only the third order overflows
        tape = scalar("exp(1.5*x1+708.9)", 1)
        assert np.isfinite(tape.jets(np.zeros(1))[2]).all()
        with pytest.raises(ExprDomainError):
            tape.jets(np.zeros(1), order=3)

    def test_power_overflow_is_domain_error(self):
        with pytest.raises(ExprDomainError):
            scalar("exp(x1+200)^4", 1).jets(np.zeros(1))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_huge_integer_power_is_domain_error(self, order):
        # p (p - 1) overflows a float: the Hessian is not finite at every point
        text = "x1^" + "9" * 300
        tape = scalar(text, 1)
        for x in (0.0, 0.5, -1.0):
            with pytest.raises(ExprDomainError) as err:
                tape.jets([x], order=order)
            assert err.value.message == "pow second derivative is not finite"
            assert err.value.span == (0, len(text))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "text, x, third, order",
        [
            ("sqrt(x1)", 1e-300, False, "second"),
            ("sqrt(x1)", 1e-300, True, "second"),
            ("log(x1)", 1e-160, False, "second"),
            ("log(x1)", 1e-110, True, "third"),
        ],
    )
    def test_non_finite_jet_is_domain_error(self, text, x, third, order):
        # the value is finite; a derivative overflows at that order
        tape = scalar("2+" + text, 1)
        with pytest.raises(ExprDomainError) as err:
            tape.jets([x], order=3 if third else 2)
        assert err.value.span == (2, 2 + len(text))
        assert f"{order} derivative is not finite" in err.value.message
        if third and order == "third":
            assert np.isfinite(tape.jets([x])[2]).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_order_jets_still_check_the_hessian(self):
        # order 1 returns no Hessian, but the tape still propagates one
        tape = scalar("2+sqrt(x1)", 1)
        with pytest.raises(ExprDomainError) as err:
            tape.jets([1e-300], order=1)
        assert "sqrt second derivative is not finite" in err.value.message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("third", [False, True])
    def test_one_overflowing_point_fails_the_batch(self, third):
        tape = ex.compile_tape([parse_expression("x2*sqrt(x1)", 2)], 2)
        healthy = np.array([[0.5, 1.0], [2.0, -1.0]])
        order = 3 if third else 2
        assert all(np.isfinite(a).all() for a in evaluate_jet(tape, healthy, order))
        with pytest.raises(ExprDomainError) as err:
            evaluate_jet(tape, np.vstack([healthy, [1e-300, 1.0]]), order)
        assert err.value.span == (3, 11)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_folded_constant_is_domain_error(self):
        with pytest.raises(ExprDomainError) as err:
            scalar("x1+1e300*1e300", 1).jets([1.0])
        assert err.value.span == (3, 14)

    @pytest.mark.parametrize("text", ["1e999", "x1+1E400", "2*.5e309"])
    def test_non_finite_literal_is_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, 2)
        assert "out of range" in err.value.message


class TestDepthLimit:
    @pytest.mark.parametrize(
        "text",
        [
            "(" * 2000 + "x1" + ")" * 2000,
            "+".join(["x1"] * 3000),
            "-" * 3000 + "x1",
            "sqrt(" * 200 + "x1" + ")" * 200,
        ],
        ids=["parens", "sum", "minus", "calls"],
    )
    def test_deep_input_is_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, 2)
        assert "nested deeper" in err.value.message
        start, end = err.value.span
        assert 0 <= start < end <= len(text)

    def test_nesting_of_150_parses(self):
        parens = parse_expression("(" * 150 + "x1+x2" + ")" * 150, 2)
        assert parens.kind == "add"
        assert [x.index for x in parens.children] == [0, 1]
        calls = "sqrt(" * 150 + "2+x1" + ")" * 150
        value, *_, d3 = scalar(calls, 2).jets(np.array([0.5, 0.0]), order=3)
        assert value == pytest.approx(2.5 ** (0.5**150))
        assert np.isfinite(d3).all()


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def _dense3(tape, d3):
    """Third derivatives over ``tape.support``, scattered to every coordinate."""
    out = np.zeros(d3.shape[:-3] + (tape.dim,) * 3)
    out[(..., *np.ix_(*[tape.support] * 3))] = d3
    return out


class TestTape:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from((1, 2, 3)))
    def test_batch_equals_single_points_bitwise(self, seed, count, order):
        rng = np.random.default_rng(seed)
        asts = [_random_ast(rng, 3, 3) for _ in range(3)]
        asts.append(asts[0])
        points = rng.uniform(-0.8, 0.8, (count, 3))
        tape = ex.compile_tape(asts, 3)
        try:
            batch = evaluate_jet(tape, points, order)
        except ExprDomainError:
            return
        alone = [ex.compile_tape((ast,), 3) for ast in asts]
        for i, p in enumerate(points):
            one = evaluate_jet(tape, p[None], order)
            assert _bits(*(arr[i] for arr in batch)) == _bits(*(arr[0] for arr in one))
            for k, own in enumerate(alone):
                # alone, an expression's jets run over its own support: the
                # same bits there, and a structural +0.0 where the shared
                # tape may hold a -0.0
                single = list(own.jets(p, order))
                got = [arr[i, k] for arr in batch]
                if order == 3:
                    got[3] = _dense3(tape, got[3])
                    single[3] = _dense3(own, single[3])
                assert _bits(*(a + 0.0 for a in got)) == _bits(*(a + 0.0 for a in single))

    @pytest.mark.parametrize("third", [False, True])
    def test_outputs_scatter_bitwise_like_one_output_at_a_time(self, third):
        # every order is written once for all outputs; the reference runs
        # the same instructions with one output at a time
        texts = ["x1*exp(x3)", "2*3", "x3^2-x1/x4", "x1*exp(x3)", "sqrt(4)", "-x3"]
        asts = [parse_expression(t, 4) for t in texts]
        asts.append(asts[2])  # a mirrored entry: the same object twice
        tape = ex.compile_tape(asts, 4)
        shared = [op for op in tape.outputs if isinstance(op, int)]
        assert len(shared) == 5 and len(set(shared)) == 3 and tape.support == (0, 2, 3)
        assert [op for op in tape.outputs if isinstance(op, float)] == [6.0, 2.0]
        points = np.random.default_rng(3).uniform(0.2, 0.8, (5, 4))
        order = 3 if third else 2
        full = evaluate_jet(tape, points, order)
        for k, op in enumerate(tape.outputs):
            one = evaluate_jet(dataclasses.replace(tape, outputs=(op,)), points, order)
            assert _bits(*(arr[:, k] for arr in full)) == _bits(*(arr[:, 0] for arr in one))

    def test_exp_log_and_powers_round_like_python_floats(self):
        # reports stay byte-identical only if every point gets math.exp,
        # math.log and float ** int, which numpy's vector routines do not match
        x = np.random.default_rng(4).uniform(0.1, 3.0, 2000)
        for text, fn in (
            ("exp(x1)", math.exp), ("log(x1)", math.log), ("x1^3", lambda v: v**3),
            ("x1^7", lambda v: v**7),
        ):
            value = evaluate_jet(scalar(text, 1), x[:, None])[0][:, 0]
            assert value.tolist() == [fn(v) for v in x.tolist()], text

    def test_repeated_subtrees_are_one_instruction(self):
        warp = "(exp(x7+x8)*(2+x1^2+x2*x3))^2"
        once = ex.compile_tape([parse_expression(warp, 8)], 8)
        six = ex.compile_tape([parse_expression(warp, 8) for _ in range(6)], 8)
        assert len(six.code) == len(once.code)
        assert len(set(six.outputs)) == 1
        # x1, x2, x1+x2, exp; x3 and the product reuse them
        tape = scalar("exp(x1+x2)*x3+exp(x1+x2)", 3)
        assert [node.kind for node, _ in tape.code] == [
            "var", "var", "add", "exp", "var", "mul", "add",
        ]

    def test_constant_entries_emit_no_instruction(self):
        entries = ["0", "--1", "2*3+exp(0)", "(1/4)^0", "sqrt(4)/log(exp(2))", "x1^0"]
        tape = ex.compile_tape([parse_expression(e, 2) for e in entries], 2)
        assert [node.kind for node, _ in tape.code] == ["var"]  # x1 of x1^0
        assert tape.outputs == (0.0, 1.0, 7.0, 1.0, 1.0, 1.0)
        v, d, d2 = evaluate_jet(tape, np.ones((3, 2)))
        assert np.all(v == tape.outputs) and not d.any() and not d2.any()

    @pytest.mark.parametrize(
        "text, bad, span",
        [
            ("x2+1/x1", 0.0, (3, 7)),
            ("x2+log(x1)", -1.0, (3, 10)),
            ("x2+sqrt(x1)", 0.0, (3, 11)),
            ("x2+exp(x1)", 800.0, (3, 10)),
        ],
    )
    @pytest.mark.parametrize("third", [False, True])
    def test_any_point_of_a_batch_raises(self, text, bad, span, third):
        points = np.array([[0.5, 0.0], [bad, 0.0], [2.0, 0.0]])
        with pytest.raises(ExprDomainError) as err:
            evaluate_jet(scalar(text, 2), points, 3 if third else 2)
        assert err.value.span == span

    def test_constant_domain_errors_keep_their_order(self):
        tape = scalar("log(x1)+1/0", 1)
        with pytest.raises(ExprDomainError) as err:
            tape.jets(np.array([-1.0]))
        assert err.value.span == (0, 7)
        with pytest.raises(ExprDomainError) as err:
            tape.jets(np.array([1.0]))
        assert err.value.span == (8, 11)

    def test_points_must_match_the_tape(self):
        tape = scalar("x1", 2)
        for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2))):
            with pytest.raises(ValueError):
                evaluate_jet(tape, bad)
