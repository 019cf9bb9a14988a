"""IR optimization passes.

Constant folding happens during construction (:meth:`IRBuilder.binary`
folds ``Const op Const`` with the exact float arithmetic the interpreter
would perform) and common-subexpression elimination falls out of the
builder's hash-consing.  This module adds an algebraic simplification pass
restricted to rewrites that are **IEEE-754 exact, including zero signs and
non-finite values** -- the compiled kernels must stay bit-identical to the
interpreter:

====================  =======================================================
``x * 1.0`` → ``x``   exact (likewise ``1.0 * x``)
``x / 1.0`` → ``x``   exact
``x ** 1.0`` → ``x``  exact (C99 F.9.4.4: ``pow(x, 1) == x``)
``x - 0.0`` → ``x``   exact (``-0.0 - 0.0 == -0.0``)
``+x`` → ``x``        exact (unary plus is the identity on floats)
``-(-x)`` → ``x``     exact (negation flips only the sign bit)
====================  =======================================================

Deliberately **not** applied: ``x + 0.0`` / ``0.0 + x`` → ``x`` (wrong for
``x == -0.0``: the sum is ``+0.0``), ``0.0 - x`` → ``-x`` (same zero-sign
hazard) and ``x * 0.0`` → ``0.0`` (wrong sign for negative ``x`` and wrong
value for non-finite ``x``).

Two more passes serve the energy method (:mod:`repro.hdl.compile.partials`):
:func:`diff` differentiates an expression symbolically with respect to one
``Input`` leaf, and :func:`substitute` simplifies an expression into another
builder with its leaves replaced by arbitrary nodes.
"""

from __future__ import annotations

from . import ir

__all__ = ["simplify", "simplify_variant", "diff", "substitute"]


def _is_const(node: ir.Node, value: float) -> bool:
    # hex() comparison distinguishes -0.0 from +0.0, unlike ==.
    return isinstance(node, ir.Const) and node.value.hex() == float(value).hex()


def _rebuild(builder: ir.IRBuilder, node: ir.Node,
             memo: dict[int, ir.Node], leaves) -> ir.Node:
    done = memo.get(id(node))
    if done is None:
        done = memo[id(node)] = _rewrite(builder, node, memo, leaves)
    return done


def _rewrite(builder: ir.IRBuilder, node: ir.Node,
             memo: dict[int, ir.Node], leaves) -> ir.Node:
    def sub(child: ir.Node) -> ir.Node:
        return _rebuild(builder, child, memo, leaves)

    if isinstance(node, ir.Const):
        return builder.const(node.value)
    if isinstance(node, ir.Input):
        leaf = leaves.get((node.kind, node.name))
        return builder.input(node.kind, node.name) if leaf is None else leaf
    if isinstance(node, ir.Unary):
        x = sub(node.x)
        if node.op == "pos":
            return x
        if isinstance(x, ir.Unary) and x.op == "neg":
            return x.x
        if isinstance(x, ir.Const):
            return builder.const(-x.value)
        return builder.unary("neg", x)
    if isinstance(node, ir.Binary):
        a = sub(node.a)
        b = sub(node.b)
        if node.op == "*" and (_is_const(b, 1.0) or _is_const(a, 1.0)):
            return a if _is_const(b, 1.0) else b
        if node.op in ("/", "**") and _is_const(b, 1.0):
            return a
        if node.op == "-" and _is_const(b, 0.0):
            return a
        return builder.binary(node.op, a, b)
    if isinstance(node, ir.Call):
        return builder.call(node.fn, *(sub(x) for x in node.args))
    if isinstance(node, ir.Compare):
        return builder.compare(node.op, sub(node.a), sub(node.b))
    if isinstance(node, ir.Select):
        return builder.select(sub(node.cond), sub(node.a), sub(node.b))
    if isinstance(node, ir.Ddt):
        return builder.ddt(sub(node.x), node.state)
    assert isinstance(node, ir.Integ)
    return builder.integ(sub(node.x), node.state, node.initial)


def simplify(builder: ir.IRBuilder, node: ir.Node) -> ir.Node:
    """Simplified (possibly identical) node, interned in ``builder``."""
    return _rebuild(builder, node, {}, {})


def substitute(builder: ir.IRBuilder, node: ir.Node,
               leaves: dict[tuple[str, str], ir.Node],
               memo: dict[int, ir.Node] | None = None) -> ir.Node:
    """:func:`simplify` ``node`` into ``builder``, ``Input`` leaves replaced.

    ``leaves`` maps ``(kind, name)`` to the replacement node (owned by
    ``builder``); unmapped inputs are re-interned unchanged, and constants
    meeting after substitution fold exactly as in :meth:`IRBuilder.binary`.
    ``memo`` shares the copy across several roots.
    """
    return _rebuild(builder, node, {} if memo is None else memo, leaves)


def simplify_variant(variant):
    """A new :class:`TracedVariant` with every root simplified."""
    from .trace import TracedVariant

    builder = variant.builder
    memo: dict[int, ir.Node] = {}
    return TracedVariant(
        variant.mode, builder,
        [(_rebuild(builder, compare, memo, {}), outcome)
         for compare, outcome in variant.guards],
        [(name, _rebuild(builder, node, memo, {}))
         for name, node in variant.contributions],
        [(name, _rebuild(builder, node, memo, {}))
         for name, node in variant.equations],
        [(name, _rebuild(builder, node, memo, {}))
         for name, node in variant.records],
        variant.param_defaults)


# --------------------------------------------------------------------------- #
# symbolic differentiation                                                    #
# --------------------------------------------------------------------------- #

def _neg(builder: ir.IRBuilder, x):
    if x is None:
        return None
    if isinstance(x, ir.Unary) and x.op == "neg":
        return x.x
    if isinstance(x, ir.Const):
        return builder.const(-x.value)
    return builder.unary("neg", x)


def _add(builder: ir.IRBuilder, x, y):
    if x is None:
        return y
    if y is None:
        return x
    return builder.binary("+", x, y)


def _sub(builder: ir.IRBuilder, x, y):
    if y is None:
        return x
    if x is None:
        return _neg(builder, y)
    return builder.binary("-", x, y)


def _mul(builder: ir.IRBuilder, x, y):
    """``x * y`` with ``None`` as a structural zero and exact unit factors
    dropped (the ``x * 1.0`` rewrite of :func:`simplify`)."""
    if x is None or y is None:
        return None
    if _is_const(y, 1.0):
        return x
    if _is_const(x, 1.0):
        return y
    return builder.binary("*", x, y)


def _call_factor(builder: ir.IRBuilder, node: ir.Call) -> ir.Node:
    """``d fn(x) / dx`` as IR, the formulas of :mod:`repro.ad.functions`."""
    b = builder
    x = node.args[0]
    one = b.const(1.0)
    fn = node.fn
    if fn == "sqrt":
        return b.binary("/", b.const(0.5), node)
    if fn == "exp":
        return node
    if fn == "log":
        return b.binary("/", one, x)
    if fn == "sin":
        return b.call("cos", x)
    if fn == "cos":
        return _neg(b, b.call("sin", x))
    if fn in ("tan", "tanh"):
        return b.binary("+" if fn == "tan" else "-", one,
                        b.binary("*", node, node))
    if fn == "sinh":
        return b.call("cosh", x)
    if fn == "cosh":
        return b.call("sinh", x)
    if fn == "atan":
        return b.binary("/", one, b.binary("+", one, b.binary("*", x, x)))
    root = b.call("sqrt", b.binary("-", one, b.binary("*", x, x)))
    if fn == "asin":
        return b.binary("/", one, root)
    assert fn == "acos"
    return b.binary("/", b.const(-1.0), root)


def _diff(builder: ir.IRBuilder, node: ir.Node, leaf: ir.Input,
          memo: dict[int, object]):
    """Derivative node, or ``None`` for a structural zero."""
    if id(node) in memo:
        return memo[id(node)]
    b = builder
    if node is leaf:
        result = b.const(1.0)
    elif isinstance(node, (ir.Const, ir.Input)):
        result = None
    elif isinstance(node, ir.Unary):
        dx = _diff(b, node.x, leaf, memo)
        result = dx if node.op == "pos" else _neg(b, dx)
    elif isinstance(node, ir.Binary):
        result = _diff_binary(b, node, leaf, memo)
    elif isinstance(node, ir.Call):
        dx = _diff(b, node.args[0], leaf, memo)
        if dx is None or node.fn == "sign":
            result = None
        elif node.fn == "abs":
            # Dual.__abs__: negate on the branch where the value is negative.
            result = b.select(b.compare("<", node.args[0], b.const(0.0)),
                              _neg(b, dx), dx)
        else:
            result = _mul(b, _call_factor(b, node), dx)
    elif isinstance(node, ir.Select):
        da = _diff(b, node.a, leaf, memo)
        db = _diff(b, node.b, leaf, memo)
        if da is None and db is None:
            result = None
        else:
            zero = b.const(0.0)
            result = b.select(node.cond, zero if da is None else da,
                              zero if db is None else db)
    else:
        raise ValueError(
            f"cannot differentiate a {type(node).__name__} node symbolically")
    memo[id(node)] = result
    return result


def _diff_binary(b: ir.IRBuilder, node: ir.Binary, leaf: ir.Input, memo):
    a, c = node.a, node.b
    da = _diff(b, a, leaf, memo)
    dc = _diff(b, c, leaf, memo)
    op = node.op
    if op == "+":
        return _add(b, da, dc)
    if op == "-":
        return _sub(b, da, dc)
    if op == "*":
        # Dual.__mul__: d(a*c) = a*dc + c*da.
        return _add(b, _mul(b, a, dc), _mul(b, c, da))
    if op == "/":
        # Dual.__truediv__: d(a/c) = (da - (a/c)*dc) / c.
        if da is None and dc is None:
            return None
        return b.binary("/", _sub(b, da, _mul(b, node, dc)), c)
    assert op == "**"
    if dc is None:
        if da is None:
            return None
        if isinstance(c, ir.Const):
            # Dual.__pow__ with a constant exponent e: e * a**(e-1) * da
            # (exponent 0 is folded to the constant 1.0 while tracing).
            e = c.value
            power = b.const(1.0) if e - 1.0 == 0.0 else \
                b.binary("**", a, b.const(e - 1.0))
            return _mul(b, b.binary("*", c, power), da)
        # A runtime exponent free of the leaf keeps Dual.__pow__'s e == 0
        # special case as a Select.
        factor = b.select(
            b.compare("==", c, b.const(0.0)), b.const(0.0),
            b.binary("*", c, b.binary("**", a,
                                      b.binary("-", c, b.const(1.0)))))
        return _mul(b, factor, da)
    # Dual ** dual: (a**c) * (dc*log(a) + c*da/a).
    log_term = _mul(b, dc, b.call("log", a))
    base_term = None if da is None else \
        b.binary("/", _mul(b, c, da), a)
    return _mul(b, node, _add(b, log_term, base_term))


def diff(builder: ir.IRBuilder, node: ir.Node, leaf: ir.Input) -> ir.Node:
    """Forward symbolic derivative ``d node / d leaf``, interned in ``builder``.

    The rules are the chain-rule formulas of :class:`repro.ad.Dual` and
    :mod:`repro.ad.functions` written as IR (``d(a*c) = a*dc + c*da``,
    ``d sqrt(x) = 0.5/sqrt(x) * dx``, ...), with structurally zero terms
    omitted and ``Select`` branches differentiated per branch.  The result is
    an ordinary expression over the same leaves, so it can be evaluated,
    differentiated again or compiled like any traced expression (run
    :func:`simplify` over it to drop the ``x ** 1.0`` factors of power
    rules).  State operators (``Ddt``/``Integ``) and bare comparisons have
    no symbolic derivative and raise :class:`ValueError`.
    """
    result = _diff(builder, node, leaf, {})
    return builder.const(0.0) if result is None else result
