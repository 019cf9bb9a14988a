"""Electrostatic transducers: transverse (gap-closing) and lateral (parallel).

These are devices (a) and (b) of the paper's figure 2.

Transverse electrostatic transducer (fig. 2a, Listing 1)
    A parallel-plate capacitor whose *gap* changes with the displacement of
    the free plate: ``C(x) = eps0*epsr*A / (d + x)``.  Table 2 gives the
    co-energy ``C(x) v^2 / 2`` and Table 3 the port efforts::

        v_port  = (d + x)/(eps0 epsr A) * integral(i dt)
        f_port  = - eps0 epsr A v^2 / (2 (d + x)^2)

Lateral (parallel) electrostatic transducer (fig. 2b)
    The plates slide parallel to each other with constant gap ``d`` and
    overlap length ``l - x``: ``C(x) = eps0*epsr*h*(l - x)/d``.  The force is
    independent of the displacement: ``f = - eps0 epsr h v^2 / (2 d)``.

The ``gap_orientation`` option of the transverse device selects between the
paper's literal convention (``d + x``; positive displacement opens the gap)
and the gap-closing convention (``d - x``) used by the pull-in example, where
positive displacement closes the gap and the classic pull-in instability at
``x = d/3`` appears.
"""

from __future__ import annotations

from ..ad import value_of
from ..constants import EPSILON_0
from ..errors import TransducerError
from .base import ConservativeTransducer, numeric_parameter

__all__ = ["TransverseElectrostaticTransducer", "LateralElectrostaticTransducer"]


class TransverseElectrostaticTransducer(ConservativeTransducer):
    """Gap-closing parallel-plate electrostatic transducer (fig. 2a).

    Parameters
    ----------
    area:
        Active plate area ``A`` [m^2].
    gap:
        Rest gap ``d`` [m].
    epsilon_r:
        Relative permittivity of the dielectric (1 for air).
    gap_orientation:
        ``"paper"`` (default): the gap is ``d + x`` exactly as in Table 2 and
        Listing 1.  ``"closing"``: the gap is ``d - x`` so that positive
        displacement closes the gap (physically the attractive direction),
        which is the convention needed to study pull-in.
    epsilon_0:
        Vacuum permittivity; defaults to the paper's 8.8542e-12 F/m.
    """

    drive_kind = "voltage"
    label = "transverse electrostatic transducer (fig. 2a)"

    def __init__(self, area: float, gap: float, epsilon_r: float = 1.0,
                 gap_orientation: str = "paper", epsilon_0: float = EPSILON_0) -> None:
        if value_of(area) <= 0.0 or value_of(gap) <= 0.0 \
                or value_of(epsilon_r) <= 0.0:
            raise TransducerError("area, gap and epsilon_r must be positive")
        if gap_orientation not in ("paper", "closing"):
            raise TransducerError("gap_orientation must be 'paper' or 'closing'")
        # Geometry may be dual-seeded (see base.numeric_parameter): the
        # closed forms below then carry design-parameter sensitivities.
        self.area = numeric_parameter(area)
        self.gap = numeric_parameter(gap)
        self.epsilon_r = numeric_parameter(epsilon_r)
        self.gap_orientation = gap_orientation
        self.epsilon_0 = float(epsilon_0)

    # ------------------------------------------------------------ analytics
    def _effective_gap(self, displacement):
        if self.gap_orientation == "paper":
            return self.gap + displacement
        return self.gap - displacement

    def capacitance(self, displacement=0.0):
        """Input capacitance ``C(x)`` (Table 2, row a)."""
        gap = self._effective_gap(displacement)
        if gap <= 0.0:
            raise TransducerError("plates are in contact: effective gap is not positive")
        return self.epsilon_0 * self.epsilon_r * self.area / gap

    def coenergy(self, drive, displacement):
        """Co-energy ``C(x) v^2 / 2`` (Table 2, row a)."""
        return 0.5 * self.capacitance(displacement) * drive * drive

    def charge_or_flux(self, drive, displacement):
        """Charge ``q = C(x) v``."""
        return self.capacitance(displacement) * drive

    def force(self, drive, displacement):
        """Force contribution at the mechanical port (Table 3, row a).

        In the paper convention this is
        ``- eps0 epsr A v^2 / (2 (d + x)^2)``; with ``gap_orientation="closing"``
        the sign flips because the same attractive force now acts along the
        positive displacement direction.
        """
        gap = self._effective_gap(displacement)
        magnitude = 0.5 * self.epsilon_0 * self.epsilon_r * self.area * drive * drive / (gap * gap)
        return -magnitude if self.gap_orientation == "paper" else magnitude

    def voltage_from_charge(self, charge, displacement=0.0):
        """Port voltage for a given stored charge (Table 3 voltage row)."""
        return charge * self._effective_gap(displacement) / (
            self.epsilon_0 * self.epsilon_r * self.area)

    def stored_energy(self, charge, displacement=0.0):
        """Internal energy ``W(q, x) = q^2 (d + x) / (2 eps0 epsr A)``."""
        return 0.5 * charge * charge * self._effective_gap(displacement) / (
            self.epsilon_0 * self.epsilon_r * self.area)

    def pull_in_voltage(self, stiffness: float) -> float:
        """Classic pull-in voltage ``sqrt(8 k d^3 / (27 eps0 epsr A))``.

        Only meaningful for the gap-closing orientation; provided for the
        pull-in example and the DC-sweep benchmarks.
        """
        if stiffness <= 0.0:
            raise TransducerError("stiffness must be positive")
        return (8.0 * stiffness * self.gap ** 3
                / (27.0 * self.epsilon_0 * self.epsilon_r * self.area)) ** 0.5

    def pull_in_displacement(self) -> float:
        """Displacement at the pull-in fold, ``d / 3`` (gap-closing orientation)."""
        return self.gap / 3.0

    def parameters(self) -> dict[str, float]:
        return {
            "A": value_of(self.area),
            "d": value_of(self.gap),
            "er": value_of(self.epsilon_r),
            "e0": self.epsilon_0,
        }

    def parameter_attributes(self) -> dict[str, str]:
        return {"A": "area", "d": "gap", "er": "epsilon_r"}


class LateralElectrostaticTransducer(ConservativeTransducer):
    """Parallel (sliding-plate / comb-like) electrostatic transducer (fig. 2b).

    Parameters
    ----------
    depth:
        Structure depth ``h`` [m] (out-of-plane dimension).
    length:
        Electrode overlap length at rest ``l`` [m].
    gap:
        Constant plate separation ``d`` [m].
    epsilon_r:
        Relative permittivity.
    """

    drive_kind = "voltage"
    label = "parallel (lateral) electrostatic transducer (fig. 2b)"

    def __init__(self, depth: float, length: float, gap: float, epsilon_r: float = 1.0,
                 epsilon_0: float = EPSILON_0) -> None:
        if value_of(depth) <= 0.0 or value_of(length) <= 0.0 \
                or value_of(gap) <= 0.0 or value_of(epsilon_r) <= 0.0:
            raise TransducerError("depth, length, gap and epsilon_r must be positive")
        self.depth = numeric_parameter(depth)
        self.length = numeric_parameter(length)
        self.gap = numeric_parameter(gap)
        self.epsilon_r = numeric_parameter(epsilon_r)
        self.epsilon_0 = float(epsilon_0)

    def capacitance(self, displacement=0.0):
        """Input capacitance ``C(x) = eps0 epsr h (l - x) / d`` (Table 2, row b)."""
        overlap = self.length - displacement
        if overlap <= 0.0:
            raise TransducerError("plates have fully disengaged: overlap is not positive")
        return self.epsilon_0 * self.epsilon_r * self.depth * overlap / self.gap

    def coenergy(self, drive, displacement):
        """Co-energy ``C(x) v^2 / 2`` (Table 2, row b)."""
        return 0.5 * self.capacitance(displacement) * drive * drive

    def charge_or_flux(self, drive, displacement):
        """Charge ``q = C(x) v``."""
        return self.capacitance(displacement) * drive

    def force(self, drive, displacement):
        """Force ``- eps0 epsr h v^2 / (2 d)`` -- independent of x (Table 3, row b)."""
        return -0.5 * self.epsilon_0 * self.epsilon_r * self.depth * drive * drive / self.gap

    def voltage_from_charge(self, charge, displacement=0.0):
        """Port voltage ``q d / (eps0 epsr h (l - x))`` (Table 3 voltage row)."""
        return charge * self.gap / (
            self.epsilon_0 * self.epsilon_r * self.depth * (self.length - displacement))

    def parameters(self) -> dict[str, float]:
        return {
            "h": value_of(self.depth),
            "l": value_of(self.length),
            "d": value_of(self.gap),
            "er": value_of(self.epsilon_r),
            "e0": self.epsilon_0,
        }

    def parameter_attributes(self) -> dict[str, str]:
        return {"h": "depth", "l": "length", "d": "gap", "er": "epsilon_r"}
