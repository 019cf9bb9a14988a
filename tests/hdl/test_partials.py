"""Symbolic differentiation (``passes.diff``) and energy-method derivations.

``diff`` is checked generatively against forward-mode AD
(:func:`repro.ad.gradient`) on random IR DAGs; the derivation layer
(:mod:`repro.hdl.compile.partials`) is checked for its caching, guard and
parameter contracts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ad import Dual, gradient
from repro.ad import functions as adf
from repro.hdl.compile import ir, partials, passes
from repro.transducers import TransverseElectrostaticTransducer

NVARS = 3
CALLS = ("sin", "cos", "tanh", "atan", "exp", "sqrt", "log", "abs")

#: One DAG step: (op, operand indices, extra) -- indices are reduced modulo
#: the number of nodes built so far, so every recipe is a valid DAG.
steps = st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "/"]),
              st.tuples(st.integers(0, 99), st.integers(0, 99)), st.none()),
    st.tuples(st.just("**"), st.tuples(st.integers(0, 99)),
              st.sampled_from([2.0, 3.0, -1.0])),
    st.tuples(st.just("pow"), st.tuples(st.integers(0, 99),
                                        st.integers(0, 99)), st.none()),
    st.tuples(st.just("call"), st.tuples(st.integers(0, 99)),
              st.sampled_from(CALLS)),
    st.tuples(st.just("neg"), st.tuples(st.integers(0, 99)), st.none()),
    st.tuples(st.just("select"), st.tuples(*[st.integers(0, 99)] * 4),
              st.none()),
)
points = st.lists(st.floats(-2.0, 2.0), min_size=NVARS, max_size=NVARS)


def replay(recipe, apply, leaves):
    """Run a recipe with ``apply`` (IR builder or numeric ops); all nodes."""
    nodes = list(leaves)
    for op, operands, extra in recipe:
        nodes.append(apply(op, [nodes[i % len(nodes)] for i in operands],
                           extra))
    return nodes


def _apply_ir(b, op, args, extra):
    if op in ("+", "-", "*", "/"):
        return b.binary(op, args[0], args[1])
    if op == "**":
        return b.binary("**", args[0], b.const(extra))
    if op == "pow":
        # A positive base keeps dual ** dual in its domain.
        return b.binary("**", b.call("exp", args[0]), args[1])
    if op == "call":
        return b.call(extra, args[0])
    if op == "neg":
        return b.unary("neg", args[0])
    return b.select(b.compare("<", args[0], args[1]), args[2], args[3])


def _apply_numeric(op, args, extra):
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if op == "/":
        return args[0] / args[1]
    if op == "**":
        return args[0] ** extra
    if op == "pow":
        return adf.exp(args[0]) ** args[1]
    if op == "call":
        return abs(args[0]) if extra == "abs" else getattr(adf, extra)(args[0])
    if op == "neg":
        return -args[0]
    return args[2] if args[0] < args[1] else args[3]


def _magnitude(value) -> float:
    """Size of one intermediate, counting a tiny value by its reciprocal
    (dividing by it amplifies every rounding error upstream)."""
    plain = value.value if isinstance(value, Dual) else float(value)
    size = max(abs(plain), 1.0 / abs(plain) if plain else 0.0)
    if isinstance(value, Dual):
        size = max(size, float(np.max(np.abs(value.deriv))))
    return size


CONSTS = (0.5, 1.5)
ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, min_size=1, max_size=8), points)
def test_diff_matches_forward_ad(recipe, point):
    trail = []

    def func(*xs):
        trail[:] = replay(recipe, _apply_numeric, list(xs) + list(CONSTS))
        return trail[-1]

    try:
        with np.errstate(all="raise"):
            expected = gradient(func, point)
    except ERRORS:
        assume(False)
    # Both methods round every intermediate once, so the tolerance follows
    # the largest intermediate value, reciprocal or derivative; DAGs with
    # ill-conditioned intermediates are skipped.
    scale = max([1.0] + [_magnitude(v) for v in trail])
    assume(math.isfinite(scale) and scale < 1e8)

    builder = ir.IRBuilder()
    leaves = [builder.input("var", str(k)) for k in range(NVARS)]
    root = replay(recipe, lambda op, args, extra: _apply_ir(
        builder, op, args, extra),
        leaves + [builder.const(c) for c in CONSTS])[-1]
    derivatives = [passes.diff(builder, root, leaf) for leaf in leaves]
    env = {("var", str(k)): float(v) for k, v in enumerate(point)}
    try:
        with np.errstate(all="raise"):
            got = partials.Derivation((), derivatives).evaluate(env)
    except ERRORS:
        assume(False)
    for k in range(NVARS):
        assert math.isclose(got[k], expected[k], rel_tol=1e-9,
                            abs_tol=1e-9 * scale), (k, got, expected)


class TestDiffRules:
    def test_structural_zero_is_const_zero(self):
        b = ir.IRBuilder()
        x, y = b.input("var", "0"), b.input("var", "1")
        d = passes.diff(b, b.binary("*", y, y), x)
        assert isinstance(d, ir.Const) and d.value == 0.0

    def test_leaf_derivative_is_one_and_unit_factors_drop(self):
        b = ir.IRBuilder()
        x, y = b.input("var", "0"), b.input("var", "1")
        assert passes.diff(b, b.binary("*", x, y), x) is y

    def test_state_operators_rejected(self):
        b = ir.IRBuilder()
        x = b.input("across", "e")
        with pytest.raises(ValueError, match="Ddt"):
            passes.diff(b, b.ddt(x, "q"), x)

    def test_substitute_replaces_leaves_and_folds(self):
        source = ir.IRBuilder()
        x = source.input("var", "0")
        expr = source.binary("*", x, source.const(2.0))
        target = ir.IRBuilder()
        v = target.input("across", "e")
        out = passes.substitute(target, expr, {("var", "0"): v})
        assert out is target.binary("*", v, target.const(2.0))
        folded = passes.substitute(target, expr,
                                   {("var", "0"): target.const(3.0)})
        assert isinstance(folded, ir.Const) and folded.value == 6.0


class TestDerivations:
    def test_owner_derivations_are_cached_per_guard_outcome(self):
        xdcr = TransverseElectrostaticTransducer(1e-8, 2e-6,
                                                 gap_orientation="closing")
        for voltage in (1.0, 2.0, 3.0):
            partials.partials(xdcr.coenergy, [voltage, 1e-7])
        variants = partials._CACHE[xdcr][type(xdcr).coenergy]
        assert len(variants) == 1
        assert variants[0].guards  # the contact check is a derivation guard

    def test_parameters_are_leaves_not_constants(self):
        xdcr = TransverseElectrostaticTransducer(1e-8, 2e-6)
        before = partials.partials(xdcr.coenergy, [2.0, 0.0])
        xdcr.area = 2e-8
        after = partials.partials(xdcr.coenergy, [2.0, 0.0])
        assert after[0] == pytest.approx(2.0 * before[0], rel=1e-15)
        assert len(partials._CACHE[xdcr][type(xdcr).coenergy]) == 1

    def test_plain_functions_are_rederived(self):
        scale = [1.0]

        def energy(x):
            return scale[0] * x * x

        assert partials.partials(energy, [3.0]) == [6.0]
        scale[0] = 2.0  # captured values are re-read on every call
        assert partials.partials(energy, [3.0]) == [12.0]
