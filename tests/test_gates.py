"""The gate ledger: what a gate passes, its margin, the bounds every report
states, and the gates a defect in a certified component fails by name."""

import json
import math

import pytest

from inls_lab import experiments as exp, functionals as fn
from inls_lab.experiments import Gate


@pytest.mark.parametrize("sense, bound, inside, on, outside", [
    ("<", 1.0, 0.5, 1.0, 2.0),
    ("<=", 1.0, 0.5, 1.0, 2.0),
    (">=", 1.0, 2.0, 1.0, 0.5),
    ("<=", -0.5, -1.0, -0.5, -0.25),
])
def test_gate_passes_by_its_sense_and_nan_fails(sense, bound, inside, on, outside):
    assert Gate("g", inside, sense, bound).passed
    assert Gate("g", on, sense, bound).passed == (sense != "<")
    assert not Gate("g", outside, sense, bound).passed
    assert not Gate("g", math.nan, sense, bound).passed
    assert Gate("g", math.nan, sense, None).passed      # reported, not gated


def test_gate_margin_is_below_one_inside_its_bound():
    assert Gate("g", 0.25, "<", 0.5).margin == 0.5
    assert Gate("g", 2.0, ">=", 0.5).margin == 0.25
    assert Gate("g", -0.9, "<=", -0.45).margin == 0.5     # a negative bound inverts
    assert Gate("g", -0.5, ">=", -1.0).margin == 0.5      # and so does >=, both at once
    assert Gate("g", 0.0, ">=", 0.5).margin == math.inf
    for gate in (Gate("g", -0.3, "<=", 1e-6), Gate("g", 1.0, "<", None),
                 Gate("g", True, "is", True), Gate("g", "resolution_limit", "is", "other")):
        assert gate.margin is None
    assert Gate("g", "resolution_limit", "is", "resolution_limit").passed
    assert not Gate("g", False, "is", True).passed


def _pinned_gates(m_q: float) -> dict:
    """Every report's gates, (name, sense) -> bound; the criterion 8 bound is
    0.9 of the line_b ground state's mass ``m_q``."""
    return {
        "ground_state_oracles": {
            ("cubic.linf_error", "<"): 1e-6,
            ("quintic.linf_error", "<"): 1e-6,
        },
        "pohozaev_gate": {
            ("line_mass_critical.r1", "<"): 1e-6,
            ("line_mass_critical.r2", "<"): 1e-6,
            ("line_mass_critical.relative_residual", "<"): 1e-8,
            ("line_mass_critical.grad_mass_ratio_dev", "<"): 1e-5,
            ("radial2_mass_critical.r1", "<"): 1e-6,
            ("radial2_mass_critical.r2", "<"): 1e-6,
            ("radial2_mass_critical.relative_residual", "<"): 1e-8,
            ("radial2_mass_critical.grad_mass_ratio_dev", "<"): 1e-5,
            ("radial3_intercritical.r1", "<"): 1e-6,
            ("radial3_intercritical.r2", "<"): 1e-6,
            ("radial3_intercritical.relative_residual", "<"): 1e-8,
            ("elapsed_seconds", "<"): 60.0,
        },
        "gn_sharpness": {
            ("line_mass_critical.sharpness_dev", "<"): 1e-5,
            ("line_mass_critical.corpus_max_excess", "<="): 1e-6,
            ("radial2_mass_critical.sharpness_dev", "<"): 1e-5,
            ("radial2_mass_critical.corpus_max_excess", "<="): 1e-6,
            ("radial3_intercritical.sharpness_dev", "<"): 1e-5,
            ("radial3_intercritical.corpus_max_excess", "<="): 1e-6,
        },
        "cmm_exactness": {
            ("N1_b0.5.deviation", "<"): 1e-12,
            ("N2_b0.5.deviation", "<"): 1e-12,
            ("N1_b0.0.deviation", "<"): 1e-12,
            ("N3_b0.5.deviation", "<"): 1e-12,
        },
        "conservation": {
            ("mass_drift", "<"): 1e-8,
            ("energy_drift_scaled", "<"): 1e-6,
            ("l2_error_t1", "<"): 1e-4,
            ("strang_orders[0]", ">="): 1.8,
            ("strang_orders[0]", "<="): 2.2,
            ("strang_orders[1]", ">="): 1.8,
            ("strang_orders[1]", "<="): 2.2,
        },
        "virial_quadratic": {
            ("mass_critical.curvature_dev", "<"): 0.01,
            ("mass_critical.fit_residual", "<"): 1e-3,
            ("intercritical.max_pointwise_dev", "<"): 0.02,
        },
        "s_family_tracking": {
            ("err_at_stop", "<"): 1e-2,
            ("T_hat_dev", "<"): 0.01,
            ("exponent_dev", "<"): 0.10,
            ("max_family_mass_dev", "<"): 1e-6,
            ("termination", "is"): "resolution_limit",
            ("rescaled_err_final", "<"): 5e-2,
            ("rescaled_err_monotone_5pct", "is"): True,
        },
        "theorem1_mass_concentration": {
            ("final_window_mass", ">="): 0.9 * m_q,
            ("eventually_nondecreasing", "is"): True,
            ("window_grad_product_increasing", "is"): None,
        },
        "rate_bound": {
            ("s_family_quintic.exponent", "<="): -0.45,
            ("s_family_quintic.resolved_energy_drift", "<"): None,
            ("quintic_collapse.exponent", "<="): -0.45,
            ("quintic_collapse.resolved_energy_drift", "<"): None,
            ("inls_collapse.exponent", "<="): -0.45,
            ("inls_collapse.resolved_energy_drift", "<"): None,
            ("intercritical_radial.exponent", "<="): -0.325,
            ("intercritical_radial.resolved_energy_drift", "<"): None,
        },
        "sigma_c_concentration": {
            ("fint_min_over_median", ">="): 0.5,
            ("u1L_min_over_median", ">="): 0.25,
            ("elapsed_seconds", "<"): 300.0,
        },
        "inequalities": {
            ("gagliardo.max_violation", "<="): 1e-6,
            ("gagliardo.trials", ">="): 100.0,
            ("banica.max_violation", "<="): 1e-6,
            ("banica.trials", ">="): 100.0,
            ("strauss.max_violation", "<="): 1e-6,
            ("strauss.trials", ">="): 100.0,
            ("radial_gn.max_violation", "<="): 1e-6,
            ("radial_gn.trials", ">="): 100.0,
            ("critical_gn.max_violation", "<="): 1e-6,
            ("critical_gn.trials", ">="): 100.0,
            ("decomposition_reconstruction_max", "<"): 1e-10,
        },
    }


def test_every_report_states_its_pinned_gates(report_of):
    """Each report's gates are exactly the pinned table: a gate added, dropped
    or rebounded fails here.  Every gate value serializes as a float, bool or
    str, and (name, sense) names one gate of its report."""
    pinned = _pinned_gates(fn.mass(exp.ground_state("line_b").profile))
    assert set(pinned) == set(exp.REGISTRY)
    for name, table in pinned.items():
        gates = report_of(name).gates
        ledger = {(g.name, g.sense): g.bound for g in gates}
        assert len(ledger) == len(gates), name
        assert ledger == table, name
        assert all(isinstance(g.value, (float, bool, str)) for g in gates), name
        json.dumps(report_of(name).as_dict()["gates"])


def _failing(report) -> set:
    return {g.name for g in report.gates if not g.passed}


def test_cmm_exactness_fails_on_its_deviations_when_c_is_off(monkeypatch):
    monkeypatch.setattr(exp, "c_of_Mm", lambda M, m, params: 1.0 + 1e-9)
    rep = exp.cmm_exactness()
    assert not rep.passed
    assert _failing(rep) == {f"{key}.deviation"
                             for key in ("N1_b0.5", "N2_b0.5", "N1_b0.0", "N3_b0.5")}


def test_rate_bound_fails_on_its_exponents_under_a_steeper_bound(monkeypatch):
    monkeypatch.setattr(exp, "rate_exponent_bound", lambda s_c: -1.5)
    rep = exp.rate_bound()
    assert not rep.passed
    assert _failing(rep) == {f"{run}.exponent" for run in exp.TRAJECTORIES}
