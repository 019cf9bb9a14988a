"""Behavioral-model compiler: typed IR, passes, and kernel codegen.

Lowers behavioral models -- Python behaviour closures and elaborated HDL-A
architectures alike -- to a typed expression IR by concolic tracing
(:mod:`.trace`), simplifies it with bitwise-exact passes (:mod:`.passes`),
and generates cached scalar and lane-vectorized residual + Jacobian kernel
parts (:mod:`.codegen`).  :mod:`.runtime` wires them into
``BehavioralDevice`` stamping as one fused function per (variant, MNA
system) and task -- full stamp, residual-only stamp, record, and a whole
batch of lanes -- with the interpreter retained as the verified fallback.
:mod:`.partials` compiles the energy method: the co-energy partials of a
transducer are derived symbolically (the ``diff`` pass) and spliced into
the device trace, so the kernels carry exact Hessians (``dF/dp`` is exact
too: the interpreter evaluates the same symbolic partials on
parameter-seeded duals).

Compiled kernels are cached process-wide by a SHA-256 structural
fingerprint (:func:`repro.hdl.compile.ir.fingerprint`), the same
content-keying scheme as :func:`repro.linalg.cache.matrix_fingerprint`;
``hdl.compile.count`` / ``hdl.compile.cache_hits`` telemetry counters track
compiles vs. cache reuse, ``hdl.compile.fallback.<reason>`` counts every
compiled -> interpreter fallback, and ``hdl.kernel.eval_s`` histograms the
fused calls (gather + kernel + accumulation) with a telemetry session open.

Escape hatch: ``SimulationOptions(behavioral_compile=False)`` keeps a run
on the interpreter.
"""

from . import ir, partials, passes
from .codegen import KernelSet, cache_info, clear_cache, compile_variant
from .runtime import (MAX_VARIANTS, batch_ready, compilation_enabled,
                      state_for, try_record, try_stamp)
from .trace import TraceError, TracedVariant, trace_behavior

__all__ = [
    "ir", "partials", "passes", "KernelSet", "compile_variant", "cache_info",
    "clear_cache", "TraceError", "TracedVariant", "trace_behavior",
    "compile_device", "compilation_enabled", "state_for", "try_stamp",
    "try_record", "batch_ready", "MAX_VARIANTS",
]


def compile_device(device, mode: str = "op", stamp_ctx=None) -> KernelSet:
    """Trace, simplify and compile one device's behaviour for ``mode``.

    Convenience entry point for tests and tooling; the stamping hot path
    goes through :mod:`.runtime`, which additionally manages guard variants
    and fallback state.
    """
    variant = passes.simplify_variant(trace_behavior(device, mode, stamp_ctx))
    return compile_variant(variant)
