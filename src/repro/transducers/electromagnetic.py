"""Electromagnetic (reluctance) transducer -- figure 2c of the paper.

A coil of ``N`` turns on a fixed yoke attracts a movable plate across an air
gap ``d + x``.  Table 2 gives the inductance and co-energy::

    L(x)  = mu0 * A * N^2 / (2 (d + x))
    W*    = mu0 * A * N^2 * i^2 / (4 (d + x))

and Table 3 the port efforts::

    v_port = d/dt [ L(x) i ]          (the paper prints the L(x) di/dt term)
    f_port = - mu0 A N^2 i^2 / (4 (d + x)^2)

The electrical port of the behavioral model is current-driven: the branch
current is an extra MNA unknown and the implicit equation
``v - d(flux)/dt = 0`` is the HDL-A equation block.  At DC the port is a
short circuit (as an inductor must be) and the force settles to the constant
reluctance force of the bias current.
"""

from __future__ import annotations

from ..constants import MU_0
from ..errors import TransducerError
from .base import ConservativeTransducer

__all__ = ["ElectromagneticTransducer"]


class ElectromagneticTransducer(ConservativeTransducer):
    """Variable-gap reluctance actuator (fig. 2c).

    Parameters
    ----------
    area:
        Magnetic cross-section area ``A`` [m^2].
    turns:
        Number of coil turns ``N``.
    gap:
        Rest air gap ``d`` [m] (the total gap is ``2*(d+x)``; the factor two
        for the two gap crossings is what produces the ``/2`` in ``L``).
    mu_0:
        Vacuum permeability (exposed for unit tests).
    """

    drive_kind = "current"
    label = "electromagnetic (reluctance) transducer (fig. 2c)"

    def __init__(self, area: float, turns: float, gap: float, mu_0: float = MU_0) -> None:
        if area <= 0.0 or turns <= 0.0 or gap <= 0.0:
            raise TransducerError("area, turns and gap must be positive")
        self.area = float(area)
        self.turns = float(turns)
        self.gap = float(gap)
        self.mu_0 = float(mu_0)

    def inductance(self, displacement=0.0):
        """Input inductance ``L(x) = mu0 A N^2 / (2 (d + x))`` (Table 2, row c)."""
        gap = self.gap + displacement
        if gap <= 0.0:
            raise TransducerError("armature is in contact: effective gap is not positive")
        return self.mu_0 * self.area * self.turns ** 2 / (2.0 * gap)

    def coenergy(self, drive, displacement):
        """Co-energy ``L(x) i^2 / 2 = mu0 A N^2 i^2 / (4 (d + x))`` (Table 2, row c)."""
        return 0.5 * self.inductance(displacement) * drive * drive

    def charge_or_flux(self, drive, displacement):
        """Flux linkage ``lambda = L(x) i``."""
        return self.inductance(displacement) * drive

    def force(self, drive, displacement):
        """Force ``- mu0 A N^2 i^2 / (4 (d + x)^2)`` (Table 3, row c)."""
        gap = self.gap + displacement
        return -self.mu_0 * self.area * self.turns ** 2 * drive * drive / (4.0 * gap * gap)

    def voltage(self, current, didt, displacement=0.0):
        """Quasi-static port voltage ``L(x) di/dt`` as printed in Table 3."""
        return self.inductance(displacement) * didt

    def parameters(self) -> dict[str, float]:
        return {
            "A": self.area,
            "N": self.turns,
            "d": self.gap,
            "mu0": self.mu_0,
        }

    def parameter_attributes(self) -> dict[str, str]:
        return {"A": "area", "N": "turns", "d": "gap"}
