"""Kernel code generation from the traced IR.

Three kernel flavors are generated from one :class:`~repro.hdl.compile.trace.
TracedVariant` and cached process-wide by the variant's structural
fingerprint (the same content-hash idea as
:func:`repro.linalg.cache.matrix_fingerprint`):

``jac``
    Scalar residual + Jacobian code.  Mirrors the AD-dual interpreter
    *formula by formula* -- including the interpreter's own algebra quirks
    (division computes ``a * (1/b)``, ``d(a*b) = va*db + vb*da`` in that
    order, subtrees free of seeded unknowns use plain float arithmetic
    exactly as the interpreter's float/dual coercion does) -- so compiled
    stamps are bit-identical to interpreted ones.
``value``
    Scalar residual/record code mirroring the interpreter's *float mode*
    (``with_jacobian=False``), used by residual-only assemblies and the
    record pass.
``vector``
    Lane-vectorized residual + Jacobian code over ``(B,)`` numpy lanes for
    :class:`~repro.circuit.mna.BatchStampContext`; generated lazily, on the
    first batch stamp, and only for guard-free variants.

Every flavor is kept as structural :attr:`KernelSet.parts` only (guard +
straight-line body, output names, per-seed derivative expressions):
:mod:`.runtime` splices them into one fused function per (variant, MNA
system) and task, the only compiled path.  A body line ``return None``
means a guard failed (the caller re-traces or falls back to the
interpreter); ``ctx.ddt``/``ctx.integ`` calls take their device-qualified
state key from ``_keys``, and the derivative semantics of the state
operators come from the context's discretization coefficients, matching
the dual chain rule through ``Integrator.differentiate``/``integrate`` term
by term.
"""

from __future__ import annotations

from ...telemetry import registry
from . import ir

__all__ = ["KernelSet", "compile_variant", "cache_info", "clear_cache"]

#: Sentinel for a derivative that is exactly the seed (d(leaf)/d(leaf)).
_ONE = object()

#: ``dfn`` factor expressions mirroring :mod:`repro.ad.functions` (``{v}`` is
#: the argument value, ``{r}`` the function value).
_DFN = {
    "sqrt": "0.5 / {r}",
    "exp": "{r}",
    "log": "1.0 / {v}",
    "sin": "{m}.cos({v})",
    "cos": "-{m}.sin({v})",
    "tan": "1.0 + {r} * {r}",
    "sinh": "{m}.cosh({v})",
    "cosh": "{m}.sinh({v})",
    "tanh": "1.0 - {r} * {r}",
    "atan": "1.0 / (1.0 + {v} * {v})",
    "asin": "1.0 / {m}.sqrt(1.0 - {v} * {v})",
    "acos": "-1.0 / {m}.sqrt(1.0 - {v} * {v})",
}


class _VectorUnsupported(Exception):
    """The variant needs scalar-only constructs (guards, dual exponents)."""


def _literal(value: float) -> str:
    """Python source literal that round-trips the float exactly."""
    return repr(float(value))


class _Writer:
    """Shared machinery for one generated kernel function."""

    def __init__(self, variant, flavor: str) -> None:
        self.variant = variant
        self.flavor = flavor
        self.vector = flavor == "vector"
        self.lines: list[str] = []
        self.names: dict[int, str] = {}
        self.emitted: set[int] = set()
        self.serial = 0
        self.shared: dict[tuple, str] = {}
        self.dmemo: dict[tuple[int, int], object] = {}
        self.math = "np" if self.vector else "math"
        # Seed leaves: the MNA unknowns the derivative pass differentiates
        # against (none in float mode).
        kinds = () if flavor == "value" else ("across", "unknown")
        self.seeds = [(kind, name) for kind, name in variant.inputs
                      if kind in kinds]
        self.args = {pair: f"i{pos}" for pos, pair in enumerate(variant.inputs)}
        self.state_index = {suffix: pos for pos, suffix
                            in enumerate(variant.state_suffixes)}
        self.dual: dict[int, bool] = {}
        self.need_c0 = False
        self.need_ci = False

    # ------------------------------------------------------------ dual marking
    def is_dual(self, node: ir.Node) -> bool:
        """Whether the interpreter would carry an AD dual at this node.

        Mirrors dual/float coercion: a node is dual iff its value depends on
        a seeded leaf; ``sign`` strips duals.  Non-dual subtrees must use
        plain float arithmetic to stay bit-identical.
        """
        cached = self.dual.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, ir.Input):
            result = (node.kind, node.name) in self.seeds
        elif isinstance(node, ir.Const):
            result = False
        elif isinstance(node, ir.Call) and node.fn == "sign":
            result = False
        elif isinstance(node, ir.Select):
            result = self.is_dual(node.a) or self.is_dual(node.b)
        elif isinstance(node, ir.Compare):
            result = False
        else:
            result = any(self.is_dual(child) for child in node.children())
        self.dual[id(node)] = result
        return result

    # ---------------------------------------------------------------- plumbing
    def fresh(self, prefix: str = "t") -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def line(self, text: str) -> None:
        self.lines.append(text)

    def assign(self, expr: str, prefix: str = "t") -> str:
        name = self.fresh(prefix)
        self.line(f"{name} = {expr}")
        return name

    def shared_temp(self, key: tuple, expr_fn) -> str:
        name = self.shared.get(key)
        if name is None:
            name = self.shared[key] = self.assign(expr_fn(), "s")
        return name

    # ----------------------------------------------------------- forward value
    def emit(self, node: ir.Node) -> str:
        """Emit (once) the value computation of ``node``; return its name."""
        if isinstance(node, ir.Const):
            return _literal(node.value)
        if isinstance(node, ir.Input):
            return self.args[(node.kind, node.name)]
        known = self.names.get(id(node))
        if known is not None:
            return known
        name = self._emit_value(node)
        self.names[id(node)] = name
        return name

    def _emit_value(self, node: ir.Node) -> str:
        if isinstance(node, ir.Unary):
            x = self.emit(node.x)
            return self.assign(f"-{x}" if node.op == "neg" else f"+{x}")
        if isinstance(node, ir.Compare):
            a, b = self.emit(node.a), self.emit(node.b)
            return self.assign(f"{a} {node.op} {b}", "c")
        if isinstance(node, ir.Select):
            cond = self.emit(node.cond)
            a, b = self.emit(node.a), self.emit(node.b)
            if self.vector:
                return self.assign(f"np.where({cond}, {a}, {b})")
            return self.assign(f"{a} if {cond} else {b}")
        if isinstance(node, ir.Call):
            return self._emit_call(node)
        if isinstance(node, ir.Ddt):
            x = self.emit(node.x)
            return self.assign(f"ctx.ddt(_keys[{self.state_index[node.state]}], {x})")
        if isinstance(node, ir.Integ):
            x = self.emit(node.x)
            return self.assign(
                f"ctx.integ(_keys[{self.state_index[node.state]}], {x}, "
                f"{_literal(node.initial)})")
        assert isinstance(node, ir.Binary)
        return self._emit_binary(node)

    def _emit_call(self, node: ir.Call) -> str:
        args = ", ".join(self.emit(a) for a in node.args)
        if node.fn == "abs":
            if self.is_dual(node):
                # Dual.__abs__ branches on value < 0 and negates; plain
                # floats go through C fabs.
                v = self.emit(node.args[0])
                cond = self.shared_temp(("absc", id(node)),
                                        lambda: f"{v} < 0.0")
                if self.vector:
                    return self.assign(f"np.where({cond}, -{v}, {v})")
                return self.assign(f"-{v} if {cond} else {v}")
            return self.assign(f"np.abs({args})" if self.vector
                               else f"abs({args})")
        if node.fn == "sign":
            if self.vector:
                return self.assign(f"np.sign({args})")
            return self.assign(f"float(np.sign({args}))")
        return self.assign(f"{self.math}.{node.fn}({args})")

    def _emit_binary(self, node: ir.Binary) -> str:
        a, b = self.emit(node.a), self.emit(node.b)
        dual = self.flavor != "value" and self.is_dual(node)
        if node.op == "/" and dual:
            # Dual.__truediv__: inv = 1/b; value = a*inv (two roundings --
            # mirrored so compiled values match dual-interpreted ones).
            inv = self.shared_temp(("inv", id(node)), lambda: f"1.0 / {b}")
            return self.assign(f"{a} * {inv}")
        if node.op == "**" and dual:
            return self._emit_pow(node, a, b)
        return self.assign(f"{a} {node.op} {b}")

    def _emit_pow(self, node: ir.Binary, a: str, b: str) -> str:
        if isinstance(node.b, ir.Const):
            # Exponent known at compile time (the e == 0 case folded during
            # tracing); Dual.__pow__ computes value ** exponent directly.
            return self.assign(f"{a} ** {b}")
        if self.is_dual(node.b):
            # dual ** dual: the interpreter raises for non-positive bases;
            # bail to it so the error surfaces identically.
            if self.vector:
                raise _VectorUnsupported("dual exponent")
            self.line(f"if {a} <= 0.0: return None")
            return self.assign(f"{a} ** {b}")
        # Runtime exponent that carries no seeds: Dual.__pow__'s constant-
        # exponent branch with its e == 0 special case, decided per call.
        if self.vector:
            return self.assign(f"np.where({b} == 0.0, 1.0, {a} ** {b})")
        return self.assign(f"1.0 if {b} == 0.0 else {a} ** {b}")

    # ------------------------------------------------------------- derivatives
    def deriv(self, node: ir.Node, k: int):
        """Derivative of ``node`` w.r.t. seed ``k``: None, _ONE or a name."""
        if not self.is_dual(node):
            return None
        key = (id(node), k)
        if key in self.dmemo:
            return self.dmemo[key]
        result = self._deriv(node, k)
        self.dmemo[key] = result
        return result

    def _dname(self, expr: str) -> str:
        return self.assign(expr, "d")

    def _deriv(self, node: ir.Node, k: int):
        if isinstance(node, ir.Input):
            return _ONE if (node.kind, node.name) == self.seeds[k] else None
        if isinstance(node, ir.Unary):
            dx = self.deriv(node.x, k)
            if node.op == "pos" or dx is None:
                return dx
            return self._dname("-1.0" if dx is _ONE else f"-{dx}")
        if isinstance(node, ir.Select):
            cond = self.emit(node.cond)
            da, db = self.deriv(node.a, k), self.deriv(node.b, k)
            if da is None and db is None:
                return None
            da = "1.0" if da is _ONE else (da or "0.0")
            db = "1.0" if db is _ONE else (db or "0.0")
            if self.vector:
                return self._dname(f"np.where({cond}, {da}, {db})")
            return self._dname(f"{da} if {cond} else {db}")
        if isinstance(node, ir.Call):
            return self._deriv_call(node, k)
        if isinstance(node, ir.Ddt):
            dx = self.deriv(node.x, k)
            if dx is None:
                return None
            self.need_c0 = True
            return self._dname("_c0" if dx is _ONE else f"_c0 * {dx}")
        if isinstance(node, ir.Integ):
            dx = self.deriv(node.x, k)
            if dx is None:
                return None
            self.need_ci = True
            return self._dname("_ci" if dx is _ONE else f"_ci * {dx}")
        assert isinstance(node, ir.Binary)
        return self._deriv_binary(node, k)

    def _deriv_call(self, node: ir.Call, k: int):
        dx = self.deriv(node.args[0], k)
        if dx is None:
            return None
        if node.fn == "abs":
            v = self.emit(node.args[0])
            cond = self.shared_temp(("absc", id(node)), lambda: f"{v} < 0.0")
            da = "1.0" if dx is _ONE else dx
            if self.vector:
                return self._dname(f"np.where({cond}, -{da}, {da})")
            return self._dname(f"-{da} if {cond} else {da}")
        template = _DFN[node.fn]
        factor = self.shared_temp(("dfn", id(node)), lambda: template.format(
            v=self.emit(node.args[0]), r=self.emit(node), m=self.math))
        return self._dname(factor if dx is _ONE else f"{factor} * {dx}")

    def _deriv_binary(self, node: ir.Binary, k: int):
        da, db = self.deriv(node.a, k), self.deriv(node.b, k)
        if node.op in ("+", "-"):
            if da is None and db is None:
                return None
            if node.op == "+":
                if db is None:
                    return da
                if da is None:
                    return db
                return self._dname(
                    f"{'1.0' if da is _ONE else da} + "
                    f"{'1.0' if db is _ONE else db}")
            if db is None:
                return da
            db_expr = "1.0" if db is _ONE else db
            if da is None:
                return self._dname(f"-{db_expr}")
            return self._dname(f"{'1.0' if da is _ONE else da} - {db_expr}")
        va, vb = self.emit(node.a), self.emit(node.b)
        if node.op == "*":
            # d(a*b) = va*db + vb*da, in the interpreter's operand order.
            terms = []
            if db is not None:
                terms.append(va if db is _ONE else f"{va} * {db}")
            if da is not None:
                terms.append(vb if da is _ONE else f"{vb} * {da}")
            if not terms:
                return None
            return self._dname(" + ".join(terms))
        if node.op == "/":
            inv = self.shared[("inv", id(node))]
            if db is None:
                if da is None:
                    return None
                return self._dname(inv if da is _ONE
                                   else f"{da} * {inv}")
            value = self.emit(node)
            db_expr = "1.0" if db is _ONE else db
            da_expr = "1.0" if da is _ONE else (da or "0.0")
            return self._dname(f"({da_expr} - {value} * {db_expr}) * {inv}")
        assert node.op == "**"
        return self._deriv_pow(node, k, da, db, va, vb)

    def _deriv_pow(self, node: ir.Binary, k: int, da, db, va: str, vb: str):
        if isinstance(node.b, ir.Const) or not self.is_dual(node.b):
            if da is None:
                return None
            if isinstance(node.b, ir.Const):
                e = node.b.value
                em1 = _literal(e - 1.0)
                factor = self.shared_temp(
                    ("pows", id(node)),
                    lambda: f"{_literal(e)} * {va} ** {em1}")
            elif self.vector:
                factor = self.shared_temp(
                    ("pows", id(node)),
                    lambda: f"np.where({vb} == 0.0, 0.0, "
                            f"{vb} * {va} ** ({vb} - 1.0))")
            else:
                factor = self.shared_temp(
                    ("pows", id(node)),
                    lambda: f"0.0 if {vb} == 0.0 else "
                            f"{vb} * {va} ** ({vb} - 1.0)")
            return self._dname(factor if da is _ONE else f"{factor} * {da}")
        # dual ** dual: value * (db*log(va) + vb*da/va)
        value = self.emit(node)
        log = self.shared_temp(("powlog", id(node)),
                               lambda: f"{self.math}.log({va})")
        terms = []
        if db is not None:
            terms.append(log if db is _ONE else f"{db} * {log}")
        if da is not None:
            terms.append(f"{vb} / {va}" if da is _ONE
                         else f"{vb} * {da} / {va}")
        if not terms:
            return None
        return self._dname(f"{value} * ({' + '.join(terms)})")


def _generate_parts(variant, flavor: str):
    """Generate the structural pieces of one kernel flavor.

    Returns ``(preamble, body, value_names, records, deriv_rows)`` where
    ``body`` is the guard + straight-line computation (with ``return None``
    guard bails), ``value_names`` name the contribution/equation results in
    order, ``records`` name the record values (``value`` flavor only) and
    ``deriv_rows`` (derivative flavors only) holds, per output, one
    derivative expression per seed leaf.
    """
    writer = _Writer(variant, flavor)
    if flavor == "vector" and variant.guards:
        raise _VectorUnsupported("guarded variant")
    # Guards first, each as soon as its operands exist: the behavior checked
    # them before computing anything that depends on the guarded condition
    # (e.g. a positivity check before dividing), so hoisting them preserves
    # the interpreter's error behavior.
    for compare, expected in variant.guards:
        cond = writer.emit(compare)
        writer.line(f"if {'not ' if expected else ''}{cond}: return None")
    outputs = ([node for _, node in variant.contributions]
               + [node for _, node in variant.equations])
    value_names = [writer.emit(node) for node in outputs]
    records, deriv_rows = [], None
    if flavor == "value":
        records = [writer.emit(node) for _, node in variant.records]
    else:
        deriv_rows = []
        for node in outputs:
            row = []
            for k in range(len(writer.seeds)):
                d = writer.deriv(node, k)
                row.append("1.0" if d is _ONE else (d or "0.0"))
            deriv_rows.append(row)
    preamble = []
    if writer.need_c0:
        preamble.append("_c0 = ctx.ddt_coefficient()")
    if writer.need_ci:
        preamble.append("_ci = ctx.integ_coefficient()")
    # The coefficient temps are referenced by derivative lines only, which
    # always come after every guard/value line that could return early --
    # hoist them to the top for simplicity.
    return preamble, writer.lines, value_names, records, deriv_rows


class KernelSet:
    """The generated kernel parts of one traced variant (process-wide
    shared)."""

    __slots__ = ("fingerprint", "inputs", "diff_inputs", "state_suffixes",
                 "guarded", "contrib_ports", "eq_names", "record_names",
                 "param_defaults", "parts", "_variant")

    def __init__(self, fp: str, variant) -> None:
        self.fingerprint = fp
        self.inputs = variant.inputs
        self.diff_inputs = tuple(p for p in variant.inputs
                                 if p[0] in ("across", "unknown"))
        self.state_suffixes = variant.state_suffixes
        self.guarded = bool(variant.guards)
        self.contrib_ports = tuple(name for name, _ in variant.contributions)
        self.eq_names = tuple(name for name, _ in variant.equations)
        self.record_names = tuple(name for name, _ in variant.records)
        self.param_defaults = dict(variant.param_defaults)
        #: ``flavor -> (preamble, body, value_names, records, deriv_rows)``,
        #: spliced by the runtime's fused generator; ``"vector"`` is added
        #: by :meth:`vector_parts`.
        self.parts = {"jac": _generate_parts(variant, "jac"),
                      "value": _generate_parts(variant, "value")}
        self._variant = variant

    def vector_parts(self):
        """The lane-vectorized parts (generated on first use), or None when
        the variant needs scalar-only constructs (guards, dual exponents)."""
        if "vector" not in self.parts:
            try:
                self.parts["vector"] = _generate_parts(self._variant, "vector")
            except _VectorUnsupported:
                self.parts["vector"] = None
        return self.parts["vector"]


_CACHE: dict[str, KernelSet] = {}
#: Process-wide kernel cache bound: inserting beyond it clears the whole
#: table (devices keep their bound kernels; structurally equal devices just
#: compile again).  Campaigns reuse a handful of model structures, so
#: clearing is rare and simpler than LRU bookkeeping.
_CACHE_LIMIT = 256


def compile_variant(variant) -> KernelSet:
    """Compile (or fetch from the process-wide cache) a traced variant."""
    fp = ir.fingerprint(variant.fingerprint_payload())
    kernels = _CACHE.get(fp)
    if kernels is not None:
        registry.inc("hdl.compile.cache_hits")
        return kernels
    kernels = KernelSet(fp, variant)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.clear()
    _CACHE[fp] = kernels
    registry.inc("hdl.compile.count")
    return kernels


def cache_info() -> dict[str, int]:
    """Size of the process-wide kernel cache (for tests/diagnostics)."""
    return {"kernels": len(_CACHE)}


def clear_cache() -> None:
    """Drop every cached kernel (tests only)."""
    _CACHE.clear()
