"""Tests for the mechanised energy-method derivation (the paper's 4-step recipe)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ad import Dual, seed_many
from repro.constants import EPSILON_0, MU_0
from repro.errors import TransducerError
from repro.transducers.energy_method import (
    EnergyDerivation,
    derive_efforts,
    differentiate_coenergy,
    partials_with_sensitivities,
)
from repro.transducers import (ElectromagneticTransducer,
                               LateralElectrostaticTransducer,
                               TransverseElectrostaticTransducer)

AREA, GAP, TURNS = 1e-4, 0.15e-3, 100.0


def electrostatic_coenergy(voltage, displacement):
    return 0.5 * EPSILON_0 * AREA / (GAP + displacement) * voltage * voltage


def electrostatic_energy(charge, displacement):
    return 0.5 * charge * charge * (GAP + displacement) / (EPSILON_0 * AREA)


def magnetic_coenergy(current, displacement):
    return MU_0 * AREA * TURNS ** 2 * current * current / (4.0 * (GAP + displacement))


voltages = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
displacements = st.floats(min_value=-4e-5, max_value=4e-5, allow_nan=False)
#: Drives whose squares stay clear of the subnormal range, where any two
#: evaluation orders legitimately round differently.
normal_drives = voltages.filter(lambda v: v == 0.0 or abs(v) > 1e-100)


class TestDeriveEfforts:
    """Step 3 of the recipe reproduces the closed forms of Table 3."""

    @given(voltages, displacements)
    @settings(max_examples=50)
    def test_electrostatic_charge_and_force(self, voltage, displacement):
        charge, force = derive_efforts(electrostatic_coenergy, [voltage, displacement])
        gap = GAP + displacement
        assert charge == pytest.approx(EPSILON_0 * AREA * voltage / gap, rel=1e-9, abs=1e-20)
        assert force == pytest.approx(-0.5 * EPSILON_0 * AREA * voltage ** 2 / gap ** 2,
                                      rel=1e-9, abs=1e-20)

    @given(st.floats(min_value=-2.0, max_value=2.0), displacements)
    @settings(max_examples=50)
    def test_energy_form_gives_port_voltage(self, charge, displacement):
        """dW/dq of the internal energy is the Table 3 voltage expression."""
        voltage, _ = derive_efforts(electrostatic_energy, [charge * 1e-9, displacement])
        expected = charge * 1e-9 * (GAP + displacement) / (EPSILON_0 * AREA)
        assert voltage == pytest.approx(expected, rel=1e-9, abs=1e-20)

    @given(st.floats(min_value=-1.0, max_value=1.0), displacements)
    @settings(max_examples=50)
    def test_electromagnetic_flux_and_force(self, current, displacement):
        flux, force = derive_efforts(magnetic_coenergy, [current, displacement])
        gap = GAP + displacement
        inductance = MU_0 * AREA * TURNS ** 2 / (2.0 * gap)
        assert flux == pytest.approx(inductance * current, rel=1e-9, abs=1e-20)
        assert force == pytest.approx(
            -MU_0 * AREA * TURNS ** 2 * current ** 2 / (4.0 * gap ** 2), rel=1e-9, abs=1e-20)

    def test_empty_state_list_rejected(self):
        with pytest.raises(TransducerError):
            derive_efforts(electrostatic_coenergy, [])


def hessian(func, values):
    """Exact Hessian: the dual-evaluated symbolic partials of ``func``."""
    rows = partials_with_sensitivities(func, seed_many(values))
    return np.array([[float(row.partial(j)) if isinstance(row, Dual) else 0.0
                      for j in range(len(values))] for row in rows])


def assert_rel(actual, expected, rel=1e-13):
    """Relative agreement, with exact zeros required to stay exact."""
    if expected == 0.0:
        assert actual == 0.0
    else:
        assert abs(actual - expected) <= rel * abs(expected), (actual, expected)


class TestExactHessian:
    """Second derivatives of the co-energy are exact, not differenced."""

    def test_quadratic_is_exact(self):
        hess = hessian(lambda x, y: x * x + 4.0 * x * y, [1.0, 2.0])
        assert np.array_equal(hess, np.array([[2.0, 4.0], [4.0, 0.0]]))

    @given(normal_drives, displacements)
    @settings(max_examples=50)
    def test_electrostatic_coenergy_matches_table3(self, voltage, displacement):
        # Around x = 0 (and anywhere else) the Hessian of C(x) v^2 / 2 is
        # the analytic one: dq/dv = C, dq/dx = df/dv = -eps A v / g^2,
        # df/dx = eps A v^2 / g^3.
        hess = hessian(electrostatic_coenergy, [voltage, displacement])
        gap = GAP + displacement
        assert_rel(hess[0, 0], EPSILON_0 * AREA / gap)
        assert_rel(hess[0, 1], -EPSILON_0 * AREA * voltage / gap ** 2)
        assert_rel(hess[1, 0], -EPSILON_0 * AREA * voltage / gap ** 2)
        assert_rel(hess[1, 1], EPSILON_0 * AREA * voltage ** 2 / gap ** 3)

    @pytest.mark.parametrize("orientation", ["paper", "closing"])
    @given(voltage=normal_drives, displacement=displacements)
    @settings(max_examples=30)
    def test_transverse_transducer_table3(self, orientation, voltage,
                                          displacement):
        xdcr = TransverseElectrostaticTransducer(
            AREA, GAP, gap_orientation=orientation)
        sign = 1.0 if orientation == "paper" else -1.0
        gap = GAP + sign * displacement
        eps_a = EPSILON_0 * AREA
        hess = hessian(xdcr.coenergy, [voltage, displacement])
        assert_rel(hess[0, 0], eps_a / gap)
        assert_rel(hess[0, 1], -sign * eps_a * voltage / gap ** 2)
        assert_rel(hess[1, 0], -sign * eps_a * voltage / gap ** 2)
        assert_rel(hess[1, 1], eps_a * voltage ** 2 / gap ** 3)

    @given(normal_drives, displacements)
    @settings(max_examples=30)
    def test_lateral_transducer_table3(self, voltage, displacement):
        depth, length = 20e-6, 100e-6
        xdcr = LateralElectrostaticTransducer(depth, length, GAP)
        hess = hessian(xdcr.coenergy, [voltage, displacement])
        eps_h = EPSILON_0 * depth
        assert_rel(hess[0, 0], eps_h * (length - displacement) / GAP)
        assert_rel(hess[0, 1], -eps_h * voltage / GAP)
        assert_rel(hess[1, 0], -eps_h * voltage / GAP)
        assert hess[1, 1] == 0.0  # the lateral force does not depend on x

    @given(normal_drives.map(lambda v: v / 30.0), displacements)
    @settings(max_examples=30)
    def test_electromagnetic_transducer_table3(self, current, displacement):
        xdcr = ElectromagneticTransducer(AREA, TURNS, GAP)
        hess = hessian(xdcr.coenergy, [current, displacement])
        gap = GAP + displacement
        k = MU_0 * AREA * TURNS ** 2
        assert_rel(hess[0, 0], k / (2.0 * gap))
        assert_rel(hess[0, 1], -k * current / (2.0 * gap ** 2))
        assert_rel(hess[1, 0], -k * current / (2.0 * gap ** 2))
        assert_rel(hess[1, 1], k * current ** 2 / (2.0 * gap ** 3))

    def test_geometry_seeds_give_exact_parameter_derivatives(self):
        # A dual-seeded area flows through the symbolic partials exactly:
        # charge and force are both linear in A.
        xdcr = TransverseElectrostaticTransducer(Dual(AREA, 1.0), GAP)
        charge, force = differentiate_coenergy(xdcr.coenergy, 10.0, 1e-6)
        assert_rel(charge.partial(0), charge.value / AREA)
        assert_rel(force.partial(0), force.value / AREA)

    def test_contact_guard_raises(self):
        xdcr = TransverseElectrostaticTransducer(
            AREA, GAP, gap_orientation="closing")
        differentiate_coenergy(xdcr.coenergy, 1.0, 0.0)
        with pytest.raises(TransducerError, match="contact"):
            differentiate_coenergy(xdcr.coenergy, 1.0, GAP)


class TestPartialsWithSensitivities:
    def test_plain_floats_return_floats(self):
        results = partials_with_sensitivities(electrostatic_coenergy, [10.0, 0.0])
        assert all(isinstance(r, float) for r in results)

    def test_chain_rule_through_dual_inputs(self):
        voltage, displacement = seed_many([10.0, 1e-6])
        charge, force = partials_with_sensitivities(
            electrostatic_coenergy, [voltage, displacement])
        assert isinstance(charge, Dual) and isinstance(force, Dual)
        gap = GAP + 1e-6
        # d(charge)/d(voltage) = C(x); d(charge)/d(x) = -eps A V / gap^2.
        assert charge.partial(0) == pytest.approx(EPSILON_0 * AREA / gap, rel=1e-13)
        assert charge.partial(1) == pytest.approx(-EPSILON_0 * AREA * 10.0 / gap ** 2,
                                                  rel=1e-13)
        # d(force)/d(voltage) = -eps A V / gap^2 (symmetry of the Hessian).
        assert force.partial(0) == pytest.approx(charge.partial(1), rel=1e-13)

    def test_differentiate_coenergy_wrapper(self):
        charge, force = differentiate_coenergy(electrostatic_coenergy, 10.0, 0.0)
        assert charge == pytest.approx(EPSILON_0 * AREA * 10.0 / GAP, rel=1e-13)
        assert force == pytest.approx(-0.5 * EPSILON_0 * AREA * 100.0 / GAP ** 2, rel=1e-13)


class TestEnergyDerivationRecord:
    def test_summary_mentions_states(self):
        record = EnergyDerivation(("charge q", "displacement x"),
                                  ("voltage", "force"), "electrostatic transducer")
        text = record.summary()
        assert "dW/dcharge q" in text and "force" in text
