"""The paper's energy-method recipe, mechanised with symbolic differentiation.

The paper derives behavioral models of conservative transducers in four
steps:

1. list the effort, flow and state variables of each port,
2. express the total internal energy (or co-energy) of the transducer as a
   function of the state variables,
3. derive the energy with respect to the state variable of each port to
   obtain the corresponding effort,
4. replace time derivatives of state variables by the corresponding flow
   variables.

Steps 2-3 are implemented by :func:`derive_efforts` /
:func:`differentiate_coenergy`: the user supplies the (co-)energy as a plain
Python function and its partial derivatives are derived *symbolically* --
no hand-derived expressions required.  The function is traced once into the
behavioral-model IR (:mod:`repro.hdl.compile.partials`) with the owner's
tunable geometry as parameter leaves, and differentiated by the IR's
``diff`` pass.  The efforts are therefore exact expressions, and so are
their own derivatives:

* called with :class:`~repro.ad.Dual` inputs (a
  :class:`~repro.circuit.devices.behavioral.BehaviorContext` seeding the MNA
  unknowns, or the sensitivity layer seeding the geometry), the partials
  are evaluated on the duals and carry the chain rule through the exact
  second derivatives, ``d(effort_k)/d(unknown) = sum_j H[k, j] *
  d(state_j)/d(unknown)``, and exact ``d(effort_k)/d(parameter)``;
* called while a behavioral device is traced for compilation, the partial
  expressions are spliced into the device's kernel, whose generated
  Jacobian and ``dF/dp`` code differentiates them once more.

Both paths evaluate the same expressions with the same arithmetic, so
compiled and interpreted devices agree bit for bit, and the Newton, AC and
sensitivity linearizations agree with the hand-derived Table 3 forms to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import TransducerError

__all__ = [
    "EnergyDerivation",
    "partials_with_sensitivities",
    "differentiate_coenergy",
    "derive_efforts",
]


def partials_with_sensitivities(func: Callable[..., object],
                                variables: Sequence[object]) -> list[object]:
    """Partial derivatives of ``func`` w.r.t. each variable, chain-rule aware.

    ``variables`` may mix plain floats and :class:`~repro.ad.Dual` values.
    The k-th returned element is the exact ``d func / d variable_k``; it is
    a dual when it depends on a dual input (or on a dual-seeded parameter of
    ``func``'s owner), its derivative part being the exact chain rule
    through the second derivatives of ``func``, and a plain float otherwise.
    Traced inputs (behavioral-model compilation) splice the symbolic
    partials into the trace instead, through their ``_repro_partials_``
    hook.

    ``func`` must be written with plain arithmetic and
    :mod:`repro.ad.functions`.  When it is a bound method of an object with
    ``parameter_attributes()`` (every conservative transducer), those
    attributes are the derivation's parameters; any other value it reads is
    a constant of the derivation (see :mod:`repro.hdl.compile.partials`).
    """
    for variable in variables:
        hook = getattr(variable, "_repro_partials_", None)
        if hook is not None:
            return hook(func, variables)
    from ..hdl.compile.partials import partials

    return partials(func, variables)


def differentiate_coenergy(coenergy: Callable[[object, object], object],
                           drive: object, displacement: object) -> tuple[object, object]:
    """Return ``(d W*/d drive, d W*/d x)`` for a two-port co-energy function.

    For a voltage-driven (capacitive) transducer the first partial is the
    charge and the second the force contribution at the mechanical port; for
    a current-driven (inductive) transducer the first partial is the flux
    linkage.  This is exactly the relation behind the paper's Table 3.
    """
    results = partials_with_sensitivities(coenergy, [drive, displacement])
    return results[0], results[1]


@dataclass(frozen=True)
class EnergyDerivation:
    """Record of one energy-method derivation (used for reports and tests).

    Attributes
    ----------
    port_states:
        Names of the state variables in the order passed to the energy
        function (step 1 of the recipe).
    efforts:
        Names of the resulting efforts, one per state (step 3).
    energy_description:
        Human-readable description of the energy expression (step 2).
    """

    port_states: tuple[str, ...]
    efforts: tuple[str, ...]
    energy_description: str

    def summary(self) -> str:
        """One-line summary of the derivation."""
        pairs = ", ".join(
            f"{effort} = dW/d{state}" for state, effort in zip(self.port_states, self.efforts))
        return f"{self.energy_description}: {pairs}"


def derive_efforts(energy: Callable[..., object], states: Sequence[float]) -> np.ndarray:
    """Numerically evaluate all port efforts from an internal-energy function.

    This is the plain-number variant of :func:`partials_with_sensitivities`
    used by the tests and benchmarks to check the closed forms of Table 3:
    ``efforts[k] = d energy / d state_k`` evaluated at ``states``.
    """
    if len(states) == 0:
        raise TransducerError("derive_efforts needs at least one state variable")
    return np.array(partials_with_sensitivities(
        energy, [float(s) for s in states]), dtype=float)
