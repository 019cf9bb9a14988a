"""Symbolic partial derivatives of traced scalar functions.

This is the compiler pass behind the paper's energy method (steps 2-3 of
the recipe in :mod:`repro.transducers.energy_method`): a co-energy
``W*(drive, x; params)`` written as plain Python arithmetic is traced once
on placeholder ``var`` leaves, with the owner's tunable parameters as
``param`` leaves, and differentiated with :func:`~.passes.diff`.  The
resulting :class:`Derivation` holds the partials ``dW*/d var_k`` as IR plus
the guards the function branched on, and serves both execution paths:

* **compiled** -- :func:`trace_partials` (reached through the
  ``Tracer._repro_partials_`` hook while a behavioral device is traced)
  substitutes the device's own nodes for the leaves, so the partials become
  part of the device variant.  The existing ``jac``/``value``/``dfdp``
  codegen then differentiates them once more: the Newton Jacobian is the
  exact Hessian chained through the device inputs, and ``dF/dp`` is exact.
* **interpreted** -- :func:`partials` evaluates the same partial nodes on
  the caller's :class:`~repro.ad.Dual` or plain values with the operators
  the Dual-mirroring codegen reproduces, so both paths agree bit for bit.

Parameters: when ``func`` is a bound method of an object that declares
``parameter_attributes()`` (every
:class:`~repro.transducers.base.ConservativeTransducer`), those attributes
are ``param`` leaves; every other value the function reads is a constant of
the derivation.  Derivations of such owners are cached per owner, function
and guard outcome (bounded by :data:`~.runtime.MAX_VARIANTS`); any other
callable is re-derived on each call, since its captured values may change.
"""

from __future__ import annotations

import operator
import weakref

from ...ad import Dual
from ...ad import functions as adf
from . import ir, passes
from .runtime import MAX_VARIANTS
from .trace import Trace, Tracer

__all__ = ["Derivation", "derive", "parameter_bindings", "partials",
           "trace_partials"]

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "**": operator.pow}
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_CALLS = {name: getattr(adf, name) for name in ir.CALL_FUNCTIONS
          if name != "abs"}
_CALLS["abs"] = abs


def _plain(value) -> float:
    """Value part of a dual or plain number."""
    return value.value if isinstance(value, Dual) else float(value)


def _evaluate(program, env: dict) -> dict[int, object]:
    """Evaluate post-ordered nodes; ``env`` maps ``(kind, name)`` to values.

    Arithmetic goes through the Python operators and
    :mod:`repro.ad.functions`, so dual inputs propagate by exactly the
    formulas the codegen mirrors; comparisons look at value parts only, as
    the generated kernels do.
    """
    values: dict[int, object] = {}
    for node in program:
        if isinstance(node, ir.Const):
            result = node.value
        elif isinstance(node, ir.Input):
            result = env[(node.kind, node.name)]
        elif isinstance(node, ir.Binary):
            result = _BINARY[node.op](values[id(node.a)], values[id(node.b)])
        elif isinstance(node, ir.Unary):
            x = values[id(node.x)]
            result = -x if node.op == "neg" else +x
        elif isinstance(node, ir.Call):
            result = _CALLS[node.fn](values[id(node.args[0])])
        elif isinstance(node, ir.Compare):
            a, b = values[id(node.a)], values[id(node.b)]
            result = _COMPARE[node.op](_plain(a), _plain(b))
        elif isinstance(node, ir.Select):
            result = values[id(node.a)] if values[id(node.cond)] \
                else values[id(node.b)]
        else:  # pragma: no cover - derive() never traces state operators
            raise ValueError(f"cannot evaluate a {type(node).__name__} node")
        values[id(node)] = result
    return values


class Derivation:
    """Symbolic partials of one traced function under one guard outcome.

    ``guards`` are ``(Compare, outcome)`` pairs over the ``var``/``param``
    leaves; ``partials[k]`` is ``d func / d var_k`` (simplified IR).
    """

    __slots__ = ("guards", "partials", "_guard_program", "_program")

    def __init__(self, guards, partials) -> None:
        self.guards = tuple(guards)
        self.partials = tuple(partials)
        self._guard_program = ir.walk([compare for compare, _ in self.guards])
        self._program = ir.walk(self.partials)

    def holds(self, env: dict) -> bool:
        """Whether every guard takes its traced outcome at plain ``env``."""
        if not self.guards:
            return True
        values = _evaluate(self._guard_program, env)
        return all(values[id(compare)] == outcome
                   for compare, outcome in self.guards)

    def evaluate(self, env: dict) -> list:
        """The partials at ``env`` (dual, plain, or mixed values)."""
        values = _evaluate(self._program, env)
        return [values[id(node)] for node in self.partials]


def parameter_bindings(func) -> dict[str, tuple[object, str]]:
    """``{generic: (owner, attribute)}`` of the tunable parameters ``func``
    reads, from its owner's ``parameter_attributes()`` (empty otherwise)."""
    owner = getattr(func, "__self__", None)
    attributes = getattr(owner, "parameter_attributes", None)
    if not callable(attributes):
        return {}
    return {name: (owner, attribute)
            for name, attribute in attributes().items()}


def derive(func, bindings, env: dict) -> Derivation:
    """Trace ``func`` at the plain point ``env`` and differentiate it.

    ``env`` holds one ``("var", str(k))`` entry per argument and one
    ``("param", name)`` entry per binding; bound attributes are swapped for
    ``param`` tracers for the duration of the call.  Whatever ``func``
    raises at that point (e.g. a non-positive gap) propagates unchanged.
    """
    trace = Trace()
    builder = trace.builder
    nargs = sum(1 for kind, _ in env if kind == "var")
    args = [trace.tracer(builder.input("var", str(k)), env[("var", str(k))])
            for k in range(nargs)]
    saved = []
    try:
        for name, (owner, attribute) in bindings.items():
            saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, trace.tracer(
                builder.input("param", name), env[("param", name)]))
        result = func(*args)
    finally:
        for owner, attribute, value in reversed(saved):
            setattr(owner, attribute, value)
    root, _ = trace.as_node(result)
    guards = [(passes.simplify(builder, compare), outcome)
              for compare, outcome in trace.guards]
    partials = [passes.simplify(builder, passes.diff(builder, root, arg._ir))
                for arg in args]
    return Derivation(guards, partials)


#: owner -> {function: [Derivation, ...]} (one entry per guard outcome).
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cached_variants(func, bindings) -> list[Derivation] | None:
    """The cache slot of ``func``, or None when it is re-derived per call."""
    if not bindings:
        return None
    try:
        return _CACHE.setdefault(func.__self__, {}).setdefault(
            func.__func__, [])
    except TypeError:  # owner not weak-referenceable or not hashable
        return None


def _derivation(func, bindings, env: dict) -> Derivation:
    """The cached derivation valid at plain ``env`` (derived on a miss)."""
    variants = _cached_variants(func, bindings)
    if variants is None:
        return derive(func, bindings, env)
    for derivation in variants:
        if derivation.holds(env):
            return derivation
    derivation = derive(func, bindings, env)
    if len(variants) >= MAX_VARIANTS:
        variants.pop(0)
    variants.append(derivation)
    return derivation


def _leaf_values(variables, bindings) -> dict:
    env = {("var", str(k)): value for k, value in enumerate(variables)}
    for name, (owner, attribute) in bindings.items():
        env[("param", name)] = getattr(owner, attribute)
    return env


def partials(func, variables) -> list:
    """``[d func / d variables[k]]`` evaluated on dual or plain values.

    Results that depend on a dual input or parameter are duals carrying the
    exact chain rule through the second derivatives of ``func``; the rest
    are plain floats.
    """
    bindings = parameter_bindings(func)
    env = _leaf_values(
        [v if isinstance(v, Dual) else float(v) for v in variables], bindings)
    derivation = _derivation(
        func, bindings, {key: _plain(value) for key, value in env.items()})
    return [value if isinstance(value, Dual) else float(value)
            for value in derivation.evaluate(env)]


def trace_partials(trace: Trace, func, variables) -> list[Tracer]:
    """Splice the symbolic partials of ``func`` into a running device trace.

    The derivation's leaves are replaced by the device's nodes for
    ``variables`` and the owner's current (traced or plain) parameter
    values, and its guards become guards of the device variant.
    """
    bindings = parameter_bindings(func)
    pairs = {key: trace.as_node(value) for key, value
             in _leaf_values(variables, bindings).items()}
    concrete = {key: value for key, (_, value) in pairs.items()}
    derivation = _derivation(func, bindings, concrete)
    leaves = {key: node for key, (node, _) in pairs.items()}
    builder = trace.builder
    memo: dict[int, ir.Node] = {}
    for compare, outcome in derivation.guards:
        trace.guard(passes.substitute(builder, compare, leaves, memo), outcome)
    return [trace.tracer(passes.substitute(builder, node, leaves, memo), value)
            for node, value in zip(derivation.partials,
                                   derivation.evaluate(concrete))]
