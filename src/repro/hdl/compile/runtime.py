"""Runtime integration of compiled behavioral kernels into MNA stamping.

This module owns the per-device compile state (traced variants, permanent
fallbacks) and the stamp-time protocol.

One compiled scalar path
------------------------
Every compiled scalar stamp and record -- residual + Jacobian, residual
only, output collection -- runs one generated **fused** function per
(variant, MNA system) and task.  Its source splices the variant's kernel
body (:attr:`~.codegen.KernelSet.parts`) between an index-resolved input
gather and direct residual/Jacobian accumulation, with every constant
(solution indices, stamp rows, leaf signs, state keys) baked in.  A stamp
is therefore one call; the last fused function that succeeded per
``(mode, task)`` is memoized in :attr:`CompileState.hot` and tried first.
Telemetry does not change the path: with a session open,
``hdl.kernel.eval_s`` times the fused call (gather + kernel +
accumulation).

1. A guard mismatch tries the next variant; when every variant misses, the
   model is re-traced against the live context (bounded by
   :data:`MAX_VARIANTS`) and *this* call is stamped by the interpreter --
   the trace already wrote the identical pending dynamic state, so the
   interpreter's writes are idempotent.
2. Kernels differentiate with respect to their *across/unknown leaves*
   (circuit-independent, so compiled kernels are shared process-wide); the
   fused function bakes each MNA dependency index as ``leaf * (+/-1)``.
   Negation is exact in IEEE arithmetic, so compiled Jacobian stamps are
   bitwise what the AD-dual interpreter produces.  Dense assemblies
   accumulate into ``ctx.jac``; sparse ones append COO triplets in the
   order, with the values and the ``!= 0.0`` filter of
   ``StampContext.add_jac``.
3. The batched path (``try_stamp_batch``) evaluates the lane-vectorized
   kernel once over ``(B,)`` lanes.  It is only offered for devices whose
   single operating-point variant traced without guards
   (:func:`batch_ready`), which is what lets behavioral devices skip the
   per-lane fallback in campaign batches.

Hand-offs to the interpreter, which stays the bit-identical reference
(``False``/``None`` from :func:`try_stamp`/:func:`try_record`):

* a parameter that is an AD dual or a bool (``int`` and ``np.float64``
  bindings are widened to ``float`` in the gather);
* integrator priming, an unset step (``h <= 0``) or a missing integrator,
  and an operating-point variant asked to serve a non-DC context;
* colliding leaves (two ports sharing a non-ground node) on a full stamp
  -- the interpreter's in-dual summation order is not reconstructable
  from per-leaf derivatives -- counted as
  ``hdl.compile.fallback.leaf_collision`` per stamp;
* arithmetic errors, so the interpreter raises the properly-worded error;
* for good, per mode: a behaviour the tracer cannot follow, an exhausted
  re-trace budget, or a variant the fused generator cannot splice
  (counted by reason, see :data:`FALLBACK_PREFIX`).

Escape hatch: ``SimulationOptions(behavioral_compile=False)`` forces the
interpreter; every stamp reads it from its context's options.
"""

from __future__ import annotations

import math
import numbers
import re
from time import perf_counter

import numpy as np

from ... import telemetry
from ...ad import Dual
from ...circuit.mna import BatchStampContext, Integrator, StampContext
from . import codegen, passes
from .trace import trace_behavior

__all__ = ["MAX_VARIANTS", "FALLBACK_PREFIX", "CompileState",
           "compilation_enabled", "state_for", "try_stamp", "try_record",
           "batch_ready", "count_per_lane", "try_stamp_batch"]

#: Re-trace budget per (device, mode): after this many traced variants the
#: mode permanently falls back to the interpreter.
MAX_VARIANTS = 8

#: Registry counter prefix of compiled -> interpreter fallbacks, one counter
#: per reason: ``trace_error`` (a behaviour the tracer cannot follow),
#: ``max_variants`` (re-trace budget exhausted), ``unfusable`` (a variant the
#: fused generator cannot splice; once per mode disabled),
#: ``leaf_collision`` (one full stamp handed over because two leaves land on
#: one unknown) and ``guarded_per_lane`` (batch lanes stamped one at a time
#: because the compiled variant is guarded, see :func:`count_per_lane`).
FALLBACK_PREFIX = "hdl.compile.fallback."


def compilation_enabled(options) -> bool:
    """Whether kernels may replace the interpreter under these options."""
    return bool(getattr(options, "behavioral_compile", True))


class CompileState:
    """Per-device compile bookkeeping (variants per mode, fallbacks)."""

    __slots__ = ("variants", "disabled", "trace_count", "probed", "hot")

    def __init__(self) -> None:
        self.variants: dict[str, list[_BoundVariant]] = {}
        self.disabled: set[str] = set()
        self.trace_count: dict[str, int] = {}
        self.probed = False
        #: ``(mode, task) -> (system, fused)``: the fused function that last
        #: served ``task`` successfully, tried first on the next call.
        self.hot: dict[tuple[str, str], tuple] = {}


def state_for(device) -> CompileState:
    state = getattr(device, "_compile_state", None)
    if state is None:
        state = device._compile_state = CompileState()
    return state


class _ParamFallback(Exception):
    """A kernel parameter is not a plain number right now (e.g. AD-seeded)."""


class _BoundVariant:
    """A process-shared KernelSet bound to one device.

    ``plan`` pre-resolves every kernel input to its source -- ``("a", p, n)``
    port across, ``("u", name)`` extra unknown, ``("b", owner, attr)``
    parameter binding, ``("d", name)`` params-dict entry, ``("c", value)``
    default constant, ``("t",)`` analysis time -- so gathering is a tag
    dispatch with no per-stamp dict lookups.  ``geometry`` caches the MNA
    index map per system (lazily; systems are long-lived across a run).
    """

    __slots__ = ("kernels", "keys", "plan", "geometry")

    def __init__(self, device, kernels: codegen.KernelSet) -> None:
        self.kernels = kernels
        self.keys = tuple((device.name, suffix)
                          for suffix in kernels.state_suffixes)
        plan = []
        for kind, name in kernels.inputs:
            if kind == "across":
                port = device.port(name)
                plan.append(("a", port.p, port.n))
            elif kind == "unknown":
                plan.append(("u", name, None))
            elif kind == "param":
                binding = device.parameter_bindings.get(name)
                if binding is not None:
                    plan.append(("b", binding[0], binding[1]))
                elif name in device.params:
                    plan.append(("d", name, None))
                else:
                    plan.append(("c", kernels.param_defaults[name], None))
            else:  # time
                plan.append(("t", None, None))
        self.plan = tuple(plan)
        self.geometry: _Geometry | None = None


class _Geometry:
    """Per-(bound variant, MNA system) stamp indices.

    ``dep_map`` is the collision-free scalar map: one
    ``(dependency index, leaf position, negate)`` triple per dependency that
    a leaf feeds, in the interpreter's dependency order.  ``entries`` keeps
    the full index -> [(leaf, sign)] map for the batched path, which sums
    colliding leaves explicitly.  ``plan`` is the bound gather plan with
    across/unknown sources resolved to solution-vector indices (-1 =
    ground), so the fused gather indexes ``ctx.x`` directly.  ``fused``
    maps each task (``"jac"``, ``"value"``, ``"record"``) to its fused
    function; ``"jac"`` is None when leaves collide, and ``fusable`` is
    False when the generator could not splice the variant.
    """

    __slots__ = ("system", "deps", "entries", "collide", "dep_map",
                 "contribs", "eqs", "plan", "tran", "fused", "fusable")

    def __init__(self, device, bound: _BoundVariant, ctx) -> None:
        kernels = bound.kernels
        self.system = ctx.system
        self.tran = bool(ctx.is_transient)
        plan = []
        for tag, a, b in bound.plan:
            if tag == "a":
                plan.append(("a", ctx.node_index(a), ctx.node_index(b)))
            elif tag == "u":
                plan.append(("u", ctx.aux_index(device, a), None))
            else:
                plan.append((tag, a, b))
        self.plan = tuple(plan)
        self.deps = device._dependency_indices(ctx.node_index, ctx.aux_index)
        entries: dict[int, list[tuple[int, float]]] = {}
        for pos, (kind, name) in enumerate(kernels.diff_inputs):
            if kind == "across":
                port = device.port(name)
                for node, sign in ((port.p, 1.0), (port.n, -1.0)):
                    idx = ctx.node_index(node)
                    if idx >= 0:
                        entries.setdefault(idx, []).append((pos, sign))
            else:
                idx = ctx.aux_index(device, name)
                entries.setdefault(idx, []).append((pos, 1.0))
        self.entries = entries
        self.collide = any(len(pairs) > 1 for pairs in entries.values())
        self.dep_map = tuple(
            (idx, entries[idx][0][0], entries[idx][0][1] < 0.0)
            for idx in self.deps if idx in entries)
        self.contribs = tuple(
            (ctx.node_index(device.port(name).p),
             ctx.node_index(device.port(name).n))
            for name in kernels.contrib_ports)
        self.eqs = tuple(ctx.aux_index(device, name)
                         for name in kernels.eq_names)
        self.fused = {task: _build_fused(device, bound, self, task)
                      for task in ("jac", "value", "record")}
        self.fusable = all(fn is not None or (task == "jac" and self.collide)
                           for task, fn in self.fused.items())


def _emit_gather(bound: _BoundVariant, geo: _Geometry, namespace, emit) -> bool:
    """Emit the index-resolved input gather; False if not fusable.

    Parameters that are not ``float`` go through :func:`_check_param`:
    other plain reals are widened, duals and bools raise
    :class:`_ParamFallback`, which hands the call to the interpreter.
    """
    if any(tag in ("a", "u") for tag, _, _ in geo.plan):
        emit("    x = ctx.x")
    for pos, (tag, a, b) in enumerate(geo.plan):
        if tag == "a":
            ea = "0.0" if a < 0 else f"float(x[{a}])"
            eb = "0.0" if b < 0 else f"float(x[{b}])"
            emit(f"    i{pos} = {ea} - {eb}")
        elif tag == "u":
            emit(f"    i{pos} = float(x[{a}])")
        elif tag in ("b", "d"):
            if tag == "d":
                source = f"device.params[{a!r}]"
            elif isinstance(b, str) and b.isidentifier():
                namespace[f"_o{pos}"] = a
                source = f"_o{pos}.{b}"
            else:
                return False
            emit(f"    i{pos} = {source}")
            emit(f"    if type(i{pos}) is not float:")
            emit(f"        i{pos} = _check_param(i{pos})")
        elif tag == "c":
            emit(f"    i{pos} = {float(a)!r}")
        else:  # time
            emit(f"    i{pos} = ctx.time")
    return True


_DDT_RE = re.compile(r"^(\w+) = ctx\.ddt\(_keys\[(\d+)\], ([^,()\s]+)\)$")
_INTEG_RE = re.compile(
    r"^(\w+) = ctx\.integ\(_keys\[(\d+)\], ([^,()\s]+), ([^,()\s]+)\)$")


def _splice_kernel(bound: _BoundVariant, geo: _Geometry, namespace, emit,
                   preamble, body) -> bool:
    """Splice the kernel preamble+body, inlining the integrator machinery.

    ``ctx.ddt``/``ctx.integ`` calls are replaced with the exact arithmetic
    and pending-state writes of ``Integrator.differentiate``/``integrate``
    (both methods, non-priming), with state keys pre-bound as constants.
    Priming, a missing integrator, an unset step and non-DC contexts of an
    operating-point variant hand the call to the interpreter (``return
    False``), whose context calls behave -- and raise -- as specified.
    Returns False when a state call has an unexpected shape, making the
    variant unfusable.
    """
    ddt_lines = [line for line in body if "ctx.ddt(" in line]
    integ_lines = [line for line in body if "ctx.integ(" in line]
    if not ddt_lines and not integ_lines:
        for line in preamble:
            emit("    " + line)
        for line in body:
            emit("    " + line)
        return True
    if any(_DDT_RE.match(line) is None for line in ddt_lines):
        return False
    if any(_INTEG_RE.match(line) is None for line in integ_lines):
        return False
    tran = geo.tran
    if tran:
        namespace["_BE"] = Integrator.BACKWARD_EULER
        emit("    itg = ctx.integrator")
        emit("    if itg is None or itg.priming or itg.h <= 0.0:"
             " return False")
        emit("    _h = itg.h")
        emit("    _be = itg.method == _BE")
        emit("    _vals = itg._values")
        emit("    _pv = itg._pending_values")
        if ddt_lines:
            emit("    _c0v = 1.0 / _h if _be else 2.0 / _h")
            emit("    _drvs = itg._derivs")
            emit("    _pd = itg._pending_derivs")
        if integ_lines:
            emit("    _ints = itg._integrals")
            emit("    _pi = itg._pending_integrals")
    else:
        # The op-mode variants also serve AC assemblies, where the state
        # calls are not the DC no-ops inlined below.
        emit("    if not ctx.is_dc: return False")
    keys = bound.keys
    for line in preamble:
        if line == "_c0 = ctx.ddt_coefficient()":
            emit("    _c0 = _c0v" if tran else "    _c0 = 0.0")
        elif line == "_ci = ctx.integ_coefficient()":
            emit("    _ci = _h if _be else 0.5 * _h" if tran
                 else "    _ci = 0.0")
        else:
            emit("    " + line)
    for line in body:
        m = _DDT_RE.match(line)
        if m is not None:
            t, k, x = m.group(1), int(m.group(2)), m.group(3)
            if not tran:
                emit(f"    {t} = 0.0 * {x}")
                continue
            sk = f"_sk{k}"
            namespace[sk] = keys[k]
            emit(f"    {t} = ({x} - _vals.get({sk}, {x})) * _c0v")
            emit(f"    if not _be: {t} -= _drvs.get({sk}, 0.0)")
            emit(f"    _pv[{sk}] = {x}")
            emit(f"    _pd[{sk}] = {t}")
            continue
        m = _INTEG_RE.match(line)
        if m is not None:
            t, k, x, init = (m.group(1), int(m.group(2)), m.group(3),
                             m.group(4))
            if not tran:
                emit(f"    {t} = 0.0 * {x} + {init}")
                continue
            sk, isk = f"_sk{k}", f"_isk{k}"
            namespace[sk] = keys[k]
            namespace[isk] = ("integ", keys[k])
            emit("    if _be:")
            emit(f"        {t} = _ints.get({sk}, {init}) + _h * {x}")
            emit("    else:")
            emit(f"        {t} = _ints.get({sk}, {init})"
                 f" + 0.5 * _h * ({x} + _vals.get({isk}, {x}))")
            emit(f"    _pv[{isk}] = {x}")
            emit(f"    _pi[{sk}] = {t}")
            continue
        emit("    " + line)
    return True


def _build_fused(device, bound: _BoundVariant, geo: _Geometry, task: str):
    """Generate one fused function of a (variant, system) pair.

    ``task`` is ``"jac"`` (full stamp), ``"value"`` (residual-only stamp) or
    ``"record"`` (output collection).  The generated source splices the
    kernel body between an index-resolved input gather and direct
    residual/Jacobian accumulation -- all constants (solution indices,
    stamp rows, leaf signs) baked in -- so a stamp is a single generated
    function call.  Accumulation order, the ``!= 0.0`` derivative filter
    and the exact ``+= value`` / ``-= value`` forms replicate
    ``StampContext.add_*`` element by element, dense or sparse, keeping
    results bitwise identical.  Returns None when the variant cannot be
    fused (colliding leaves on ``"jac"``, exotic parameter bindings,
    unexpected state-call shapes).

    Contract of the generated function: ``True`` / the record dict = done,
    ``None`` = a guard failed, ``False`` = the interpreter must serve this
    call (see the module docstring); it raises :class:`_ParamFallback` for
    dual or bool parameters.
    """
    if task == "jac" and geo.collide:
        return None
    kernels = bound.kernels
    preamble, body, value_names, extras, rows = (
        kernels.parts["jac" if task == "jac" else "value"])
    namespace = {"math": math, "np": np, "_keys": bound.keys,
                 "_check_param": _check_param}
    lines = ["def fused(ctx, device):"]
    emit = lines.append
    if not _emit_gather(bound, geo, namespace, emit):
        return None
    if not _splice_kernel(bound, geo, namespace, emit, preamble, body):
        return None
    if task == "record":
        items = []
        for port_name, v in zip(kernels.contrib_ports, value_names):
            items.append(f"{f'i({device.name}.{port_name})'!r}: float({v})")
        for rec_name, r in zip(kernels.record_names, extras):
            items.append(
                f"{f'{rec_name}({device.name})'!r}: float(np.real({r}))")
        emit(f"    return {{{', '.join(items)}}}")
        return _exec_fused(lines, namespace)
    # Jacobian groups -- (derivative, [(row, col, negate)]) per (output,
    # dependency) -- in StampContext.add_* order.
    groups = []
    emit("    res = ctx.res")
    targets = list(geo.contribs) + [(row, -1) for row in geo.eqs]
    for out_pos, (ip, in_) in enumerate(targets):
        v = value_names[out_pos]
        if ip >= 0:
            emit(f"    res[{ip}] += {v}")
        if in_ >= 0:
            emit(f"    res[{in_}] -= {v}")
        if task == "jac":
            for idx, pos, neg in geo.dep_map:
                items = [(r, idx, n) for r, n in ((ip, neg), (in_, not neg))
                         if r >= 0]
                if items and rows[out_pos][pos] != "0.0":
                    groups.append((rows[out_pos][pos], items))
    if task == "jac":
        # dval = (+/-) d: the `dval != 0.0` filter is sign-independent and
        # `a += -d` == `a -= d` in IEEE.  Sparse assemblies append the COO
        # triplets `add_jac` would, in the same order.
        dense, sparse = [], []
        for d, items in groups:
            test = "" if d == "1.0" else f"if {d} != 0.0: "
            dense.append(test + "; ".join(
                f"jac[{r}, {c}] {'-=' if n else '+='} {d}"
                for r, c, n in items))
            rs = ", ".join(str(r) for r, _, _ in items)
            cs = ", ".join(str(c) for _, c, _ in items)
            vs = ", ".join(("-" if n else "") + d for _, _, n in items)
            sparse.append(f"{test}_jr += ({rs},); _jc += ({cs},); "
                          f"_jv += ({vs},)")
        emit("    if ctx.use_sparse:")
        emit("        _jr, _jc, _jv = ctx._jac_rows, ctx._jac_cols,"
             " ctx._jac_vals")
        lines.extend("        " + line for line in sparse)
        emit("        return True")
        emit("    jac = ctx.jac")
        lines.extend("    " + line for line in dense)
    emit("    return True")
    return _exec_fused(lines, namespace)


#: Process-wide ``source -> code object`` memo of the fused functions (the
#: constants they bind live in each call's namespace, not in the source):
#: every rebuild of one netlist and every campaign point compiles once.
#: Cleared when full, like the kernel cache.
_FUSED_CODE: dict[str, object] = {}
_FUSED_CODE_LIMIT = 1024


def _exec_fused(lines: list[str], namespace: dict):
    source = "\n".join(lines) + "\n"
    code = _FUSED_CODE.get(source)
    if code is None:
        if len(_FUSED_CODE) >= _FUSED_CODE_LIMIT:
            _FUSED_CODE.clear()
        code = _FUSED_CODE[source] = compile(source, "<behavioral-fused>",
                                             "exec")
    exec(code, namespace)
    return namespace["fused"]


def _geometry(device, bound: _BoundVariant, ctx) -> _Geometry:
    geo = bound.geometry
    if geo is None or geo.system is not ctx.system:
        geo = bound.geometry = _Geometry(device, bound, ctx)
    return geo


def _check_param(value) -> float:
    """``float(value)`` of a plain real; dual/bool/other raise
    :class:`_ParamFallback`."""
    if isinstance(value, (bool, Dual)) or not isinstance(value, numbers.Real):
        raise _ParamFallback()
    return float(value)


def _gather_nodes(device, bound: _BoundVariant, ctx, lanes: bool = False
                  ) -> list:
    """Node-based kernel inputs in layout order (batch and dF/dp contexts).

    ``across`` returns lane arrays in batch contexts; with ``lanes`` a
    parameter may also be a swept ``(B,)`` column.
    """
    values = []
    for tag, a, b in bound.plan:
        if tag == "a":
            values.append(ctx.across(a) - ctx.across(b))
        elif tag in ("b", "d"):
            v = getattr(a, b) if tag == "b" else device.params[a]
            if type(v) is not float:
                v = np.asarray(v, dtype=float) \
                    if lanes and isinstance(v, np.ndarray) else _check_param(v)
            values.append(v)
        elif tag == "u":
            values.append(ctx.aux_value(device, a))
        elif tag == "c":
            values.append(a)
        else:  # time
            values.append(ctx.time)
    return values


def _dep_value(entries, idx: int, dlist):
    """Derivative w.r.t. unknown ``idx`` from the per-leaf derivatives."""
    pairs = entries.get(idx)
    if not pairs:
        return 0.0
    total = None
    for pos, sign in pairs:
        term = dlist[pos] if sign > 0 else -dlist[pos]
        total = term if total is None else total + term
    return total


def _fall_back(state: CompileState, mode: str, reason: str) -> None:
    """Hand ``mode`` to the interpreter for good, counted by ``reason``."""
    state.disabled.add(mode)
    telemetry.registry.inc(f"{FALLBACK_PREFIX}{reason}")


def _retrace(device, state: CompileState, mode: str, stamp_ctx) -> None:
    """Trace a fresh variant (or permanently disable the mode)."""
    count = state.trace_count.get(mode, 0)
    if count >= MAX_VARIANTS:
        _fall_back(state, mode, "max_variants")
        return
    state.trace_count[mode] = count + 1
    try:
        variant = passes.simplify_variant(
            trace_behavior(device, mode, stamp_ctx))
        kernels = codegen.compile_variant(variant)
    except Exception:
        # Untraceable (float() concretization, foreign duals, exceptions on
        # traced values): the interpreter owns this mode from now on.
        _fall_back(state, mode, "trace_error")
        return
    if set(device.extra_unknowns) - set(kernels.eq_names):
        # Declared unknowns without equations: leave the mode to the
        # interpreter, which raises the properly-worded DeviceError.
        state.disabled.add(mode)
        return
    state.variants.setdefault(mode, []).append(_BoundVariant(device, kernels))


def _run_kernel(kernel, ctx, keys, inputs):
    t0 = perf_counter()
    try:
        return kernel(ctx, keys, *inputs)
    finally:
        telemetry.registry.observe("hdl.kernel.eval_s", perf_counter() - t0)


def _run_fused(fused, ctx, device):
    """Call one fused function; False (interpreter) when it raised.

    The interpreter performs the same arithmetic, so it raises the
    properly-worded error (or survives the edge case).  With telemetry on,
    ``hdl.kernel.eval_s`` times the whole call.
    """
    t0 = perf_counter() if telemetry.enabled() else None
    try:
        return fused(ctx, device)
    except (ZeroDivisionError, OverflowError, ValueError, _ParamFallback):
        return False
    finally:
        if t0 is not None:
            telemetry.registry.observe("hdl.kernel.eval_s",
                                       perf_counter() - t0)


def _scalar_eligible(ctx) -> bool:
    if type(ctx) is not StampContext:
        # Batch and sensitivity-seeded subclasses have their own contracts.
        return False
    if ctx.keep_residual_duals or not compilation_enabled(ctx.options):
        return False
    integrator = ctx.integrator
    if integrator is not None and integrator.capture_raw:
        # Raw-state capture must store the AD duals themselves.
        return False
    return True


def _serve(device, ctx, task: str):
    """Run the fused ``task`` function of the first variant whose guards
    hold: its result (``True`` / the record dict), or False when the
    interpreter must serve this call."""
    state = state_for(device)
    mode = "tran" if ctx.is_transient else "op"
    if mode in state.disabled:
        return False
    hot_key = (mode, task)
    hot = state.hot.get(hot_key)
    if hot is not None and hot[0] is ctx.system:
        out = _run_fused(hot[1], ctx, device)
        if out is not None:
            return out
    bounds = state.variants.get(mode)
    if bounds is None:
        _retrace(device, state, mode, ctx)
        return False
    for bound in bounds:
        geo = _geometry(device, bound, ctx)
        if not geo.fusable:
            _fall_back(state, mode, "unfusable")
            return False
        fused = geo.fused[task]
        if fused is None:
            # Leaves collide on one unknown: only the interpreter's in-dual
            # summation reproduces those derivatives bitwise.
            telemetry.registry.inc(f"{FALLBACK_PREFIX}leaf_collision")
            return False
        out = _run_fused(fused, ctx, device)
        if out is not None:
            if out is not False:
                state.hot[hot_key] = (ctx.system, fused)
            return out
    # Every variant's guards missed.
    _retrace(device, state, mode, ctx)
    return False


def try_stamp(device, ctx) -> bool:
    """Compiled replacement for ``BehavioralDevice.stamp``; False = fallback."""
    if type(ctx) is not StampContext:
        if isinstance(ctx, BatchStampContext):
            return try_stamp_batch(device, ctx)
        return False
    if not _scalar_eligible(ctx):
        return False
    return _serve(device, ctx, "jac" if ctx.want_jacobian else "value")


def try_record(device, ctx):
    """Compiled ``BehavioralDevice.record``; None means use the interpreter."""
    if not _scalar_eligible(ctx):
        return None
    out = _serve(device, ctx, "record")
    return None if out is False else out


# --------------------------------------------------------------------------- #
# batched (lane-vectorized) path                                              #
# --------------------------------------------------------------------------- #

def _batch_bound(device, state: CompileState):
    """The single guard-free op variant, or None if the device is not
    batch-vectorizable."""
    if "op" in state.disabled:
        return None
    variants = state.variants.get("op")
    if variants is None and not state.probed:
        # Origin probe: trace the op-mode behaviour at the all-zero point so
        # batch eligibility is known before any solve runs.
        state.probed = True
        _retrace(device, state, "op", None)
        variants = state.variants.get("op")
    if not variants or len(variants) != 1:
        return None
    bound = variants[0]
    if bound.kernels.guarded or bound.kernels.vector() is None:
        return None
    return bound


def count_per_lane(device, lanes: int) -> None:
    """Count ``lanes`` per-lane stamps of ``device`` caused by a guarded
    compiled variant (the ``guarded_per_lane`` fallback)."""
    state = getattr(device, "_compile_state", None)
    variants = None if state is None else state.variants.get("op")
    if variants and any(bound.kernels.guarded for bound in variants):
        telemetry.registry.inc(f"{FALLBACK_PREFIX}guarded_per_lane", lanes)


def batch_ready(device, options=None) -> bool:
    """Whether the device can stamp a whole ``BatchStampContext`` at once."""
    if options is not None and not compilation_enabled(options):
        return False
    return _batch_bound(device, state_for(device)) is not None


def try_stamp_batch(device, ctx: BatchStampContext) -> bool:
    """Stamp every lane of a batch context with one vector-kernel call."""
    if not compilation_enabled(ctx.options):
        return False
    bound = _batch_bound(device, state_for(device))
    if bound is None:
        return False
    kernels = bound.kernels
    try:
        inputs = _gather_nodes(device, bound, ctx, lanes=True)
    except _ParamFallback:
        return False
    values, derivs = _run_kernel(kernels.vector(), ctx, bound.keys, inputs)
    geo = _geometry(device, bound, ctx)
    # Stamp in the serial (output, dependency) order so same-cell Jacobian
    # accumulations sum in the same sequence as the scalar path.  Per-lane
    # zero derivatives are added as zeros rather than skipped -- dense batch
    # accumulation tolerates that (the scalar path's ``!= 0.0`` skip only
    # avoids no-op adds).
    out_pos = 0
    for ip, in_ in geo.contribs:
        ctx.add_through(ip, in_, values[out_pos])
        if ctx.want_jacobian:
            dlist = derivs[out_pos]
            for idx in geo.deps:
                dval = _dep_value(geo.entries, idx, dlist)
                if dval is not None and np.ndim(dval) == 0 and dval == 0.0:
                    continue
                ctx.add_through_jac(ip, in_, idx, dval)
        out_pos += 1
    for row in geo.eqs:
        ctx.add_res(row, values[out_pos])
        if ctx.want_jacobian:
            dlist = derivs[out_pos]
            for idx in geo.deps:
                dval = _dep_value(geo.entries, idx, dlist)
                if dval is not None and np.ndim(dval) == 0 and dval == 0.0:
                    continue
                ctx.add_jac(row, idx, dval)
        out_pos += 1
    return True


# --------------------------------------------------------------------------- #
# dF/dp                                                                       #
# --------------------------------------------------------------------------- #

def parameter_gradients(device, ctx, parameter_names=None):
    """Compiled ``dF/dp``: instantaneous partials of the device's residual
    outputs with respect to its parameters, at the context's state.

    Returns ``{output_name: {param: value}}`` with contribution outputs named
    by port and equation outputs by unknown, or ``None`` when the device has
    no applicable compiled variant (guards missed, mode disabled, compile
    off).  Matches the dual-seeding contract of the sensitivity layer: state
    operators contribute ``coefficient * dp`` through the active
    discretization and baked initial values are parameter-independent.
    """
    if not _scalar_eligible(ctx):
        return None
    state = state_for(device)
    mode = "tran" if ctx.is_transient else "op"
    if mode in state.disabled:
        return None
    bounds = state.variants.get(mode)
    if bounds is None:
        _retrace(device, state, mode, ctx)
        bounds = state.variants.get(mode)
        if bounds is None:
            return None
    for bound in bounds:
        try:
            inputs = _gather_nodes(device, bound, ctx)
        except _ParamFallback:
            return None
        kernels = bound.kernels
        names = parameter_names
        if names is None:
            names = kernels.param_inputs
        try:
            out = _run_kernel(kernels.dfdp(), ctx, bound.keys, inputs)
        except (ZeroDivisionError, OverflowError, ValueError):
            return None
        if out is None:
            continue
        values, derivs = out
        output_names = kernels.contrib_ports + kernels.eq_names
        result: dict[str, dict[str, float]] = {}
        for out_pos, output in enumerate(output_names):
            row = {}
            for k, param in enumerate(kernels.param_inputs):
                if param in names:
                    row[param] = derivs[out_pos][k]
            result[output] = row
        return result
    return None
