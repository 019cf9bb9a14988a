"""Electrodynamic (voice-coil) transducer -- figure 2d of the paper.

A coil of ``N`` turns and radius ``r`` moves in a constant radial magnetic
field ``B``.  Unlike the other three devices the electromechanical coupling
is a *gyrator*: the coupling coefficient ``Bl = 2*pi*N*r*B`` links the port
efforts and flows directly rather than through a stored field energy.

Table 2/3 of the paper list the coil self-inductance ``L = mu0 N r / 2`` with
stored energy ``L i^2 / 2`` and the force ``2*pi*N*r*B*i``.  The printed
voltage row only contains the inductive term ``L di/dt``; a conservative
model additionally needs the motional back-EMF ``Bl * u`` (otherwise
electrical and mechanical power do not balance), so the behavioral model here
implements the full gyrator::

    v_port = L di/dt + Bl * u
    f_port = - Bl * i        (same port-sign convention as the other models)

This addition is recorded as a documented deviation in EXPERIMENTS.md; the
force magnitude is exactly the paper's ``2 pi N r B i``.
"""

from __future__ import annotations

import math

from ..circuit.devices.behavioral import BehaviorContext
from ..constants import MU_0
from ..errors import TransducerError
from .base import ConservativeTransducer

__all__ = ["ElectrodynamicTransducer"]


class ElectrodynamicTransducer(ConservativeTransducer):
    """Moving-coil (voice-coil) transducer (fig. 2d).

    Parameters
    ----------
    turns:
        Number of coil turns ``N``.
    radius:
        Coil radius ``r`` [m].
    b_field:
        Radial magnetic flux density ``B`` [T] in the coil gap.
    mu_0:
        Vacuum permeability used for the self-inductance ``mu0 N r / 2``.
    """

    drive_kind = "current"
    label = "electrodynamic (voice-coil) transducer (fig. 2d)"

    def __init__(self, turns: float, radius: float, b_field: float,
                 mu_0: float = MU_0) -> None:
        if turns <= 0.0 or radius <= 0.0:
            raise TransducerError("turns and radius must be positive")
        self.turns = float(turns)
        self.radius = float(radius)
        self.b_field = float(b_field)
        self.mu_0 = float(mu_0)

    # ------------------------------------------------------------ analytics
    @property
    def coupling(self) -> float:
        """Gyrator coefficient ``Bl = 2 pi N r B`` [N/A or V*s/m]."""
        return 2.0 * math.pi * self.turns * self.radius * self.b_field

    def inductance(self, displacement=0.0):
        """Coil self-inductance ``mu0 N r / 2`` (Table 2, row d; x-independent)."""
        return 0.5 * self.mu_0 * self.turns * self.radius

    def coenergy(self, drive, displacement):
        """Magnetic co-energy ``L i^2 / 2`` (Table 2, row d).

        The co-energy does not depend on the displacement -- the
        electromechanical coupling of a voice coil is a gyrator, not an
        energy-storage coupling, which is why the energy-method recipe alone
        yields zero force for this device (see module docstring).
        """
        return 0.5 * self.inductance(displacement) * drive * drive

    def charge_or_flux(self, drive, displacement):
        """Flux linkage ``L i`` of the coil self-inductance."""
        return self.inductance(displacement) * drive

    def force(self, drive, displacement):
        """Force contribution ``- Bl * i`` (magnitude = Table 3's ``2 pi N r B i``)."""
        return -self.coupling * drive

    def back_emf(self, velocity) -> float:
        """Motional EMF ``Bl * u`` induced by the coil velocity."""
        return self.coupling * velocity

    def parameters(self) -> dict[str, float]:
        return {
            "N": self.turns,
            "r": self.radius,
            "B": self.b_field,
            "mu0": self.mu_0,
        }

    def parameter_attributes(self) -> dict[str, str]:
        return {"N": "turns", "r": "radius", "B": "b_field"}

    # ------------------------------------------------------------ behaviour
    def _behavior_current_driven(self, closed_form: bool, x0: float):
        """Gyrator behaviour: overrides the energy-method default.

        ``closed_form`` is accepted for API symmetry but both paths are the
        same here because the coupling is not derivable from the co-energy.
        """
        inductance = self.inductance()
        coupling = self.coupling

        def behavior(ctx: BehaviorContext) -> None:
            voltage = ctx.across("elec")
            velocity = ctx.across("mech")
            displacement = ctx.integ(velocity, key="x", initial=x0)
            current = ctx.unknown("i")
            flux = inductance * current
            ctx.contribute("elec", current)
            ctx.equation("i", voltage - ctx.ddt(flux, key="flux") - coupling * velocity)
            ctx.contribute("mech", -coupling * current)
            ctx.record("x", displacement)
            ctx.record("force", -coupling * current)
            ctx.record("flux", flux)

        return behavior
