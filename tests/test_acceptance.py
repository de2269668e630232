"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and asserts the corresponding experiment
report, each run once per session (the ``report_of`` fixture).  The
experiments are shared, memoized pipelines from inls_lab.experiments, so the
CLI `reproduce` subcommand runs the identical code paths.
"""

import json


def _report_line(criterion: str, report, extra: str = "") -> None:
    json.dumps(report.as_dict())    # every report serializes as it stands
    status = "PASS" if report.passed else "FAIL"
    tight = report.tightest
    tightest = "" if tight is None else f"; tightest {tight.name}, margin {tight.margin:.3g}"
    print(f"[{criterion}] {status} {report.name} ({report.elapsed:.1f}s){extra}{tightest}")


def test_criterion_01_ground_state_oracles(report_of):
    rep = report_of("ground_state_oracles")
    errs = {k: v["linf_error"] for k, v in rep.details.items()}
    _report_line("criterion 1", rep, f" Linf errors: {errs}")
    assert rep.passed, rep.details
    assert rep.elapsed < 10.0


def test_criterion_02_pohozaev_gate(report_of):
    rep = report_of("pohozaev_gate")
    rs = {k: (v["r1"], v["r2"]) for k, v in rep.details.items() if isinstance(v, dict)}
    _report_line("criterion 2", rep, f" residuals: {rs}")
    assert rep.passed, rep.details
    for case, entry in rep.details.items():
        if isinstance(entry, dict):
            assert entry["r1"] < 1e-6 and entry["r2"] < 1e-6
            assert entry["relative_residual"] < 1e-8
    assert rep.elapsed < 60.0


def test_criterion_03_gn_sharpness(report_of):
    rep = report_of("gn_sharpness")
    _report_line("criterion 3", rep)
    assert rep.passed, rep.details
    for case, entry in rep.details.items():
        assert entry["sharpness_dev"] < 1e-5
        assert entry["corpus_max_excess"] < 1e-6


def test_criterion_04_cmm_exactness(report_of):
    rep = report_of("cmm_exactness")
    _report_line("criterion 4", rep)
    assert rep.passed, rep.details
    for entry in rep.details.values():
        assert entry["deviation"] < 1e-12


def test_criterion_05_conservation(report_of):
    rep = report_of("conservation")
    d = rep.details
    _report_line(
        "criterion 5", rep,
        f" mass drift {d['mass_drift']:.1e}, energy drift {d['energy_drift_scaled']:.1e},"
        f" orders {['%.2f' % o for o in d['strang_orders']]}",
    )
    assert d["mass_drift"] < 1e-8
    assert d["energy_drift_scaled"] < 1e-6
    assert all(1.8 <= o <= 2.2 for o in d["strang_orders"])
    assert rep.passed


def test_criterion_06_virial_identity(report_of):
    rep = report_of("virial_quadratic")
    d = rep.details
    _report_line(
        "criterion 6", rep,
        f" curvature dev {d['mass_critical']['curvature_dev']:.2e},"
        f" intercritical max {d['intercritical']['max_pointwise_dev']:.2e}",
    )
    assert d["mass_critical"]["curvature_dev"] < 0.01
    assert d["mass_critical"]["fit_residual"] < 1e-3
    assert d["intercritical"]["max_pointwise_dev"] < 0.02
    assert rep.passed


def test_criterion_07_pseudoconformal_tracking(report_of):
    rep = report_of("s_family_tracking")
    d = rep.details
    _report_line(
        "criterion 7", rep,
        f" err@stop {d['err_at_stop']:.2e}, T_hat {d['T_hat']:.4f},"
        f" exponent {d['exponent']:.3f}, mass dev {d['max_family_mass_dev']:.1e}",
    )
    assert d["err_at_stop"] < 1e-2
    assert abs(d["T_hat"] - 1.0) < 0.01
    assert abs(d["exponent"] + 1.0) < 0.10
    assert d["max_family_mass_dev"] < 1e-6
    assert rep.passed


def test_criterion_08_mass_concentration(report_of):
    rep = report_of("theorem1_mass_concentration")
    d = rep.details
    _report_line(
        "criterion 8", rep,
        f" final window mass = {d['final_fraction_of_Qmass']:.3f} x ||Q||^2",
    )
    assert d["final_fraction_of_Qmass"] >= 0.9
    assert d["eventually_nondecreasing"]
    assert rep.passed


def test_criterion_09_rate_bound(report_of):
    rep = report_of("rate_bound")
    _report_line(
        "criterion 9", rep,
        " exponents: " + ", ".join(f"{k}={v['exponent']:.3f}" for k, v in rep.details.items()),
    )
    for name, entry in rep.details.items():
        assert entry["exponent"] <= entry["bound"], name
    assert rep.passed


def test_criterion_10_profile_convergence(report_of):
    rep = report_of("s_family_tracking")
    d = rep.details
    _report_line(
        "criterion 10", rep,
        f" rescaled err final {d['rescaled_err_final']:.2e},"
        f" monotone(5%) {d['rescaled_err_monotone_5pct']}",
    )
    assert d["rescaled_err_final"] < 5e-2
    assert d["rescaled_err_monotone_5pct"]


def test_criterion_11_sigma_c_windows(report_of):
    rep = report_of("sigma_c_concentration")
    d = rep.details
    _report_line(
        "criterion 11", rep,
        f" fint floor {d['fint_min_over_median']:.3f}, u1L floor {d['u1L_min_over_median']:.3f}",
    )
    assert d["fint_min_over_median"] >= 0.5
    assert d["u1L_min_over_median"] >= 0.25
    assert rep.elapsed < 300.0
    assert rep.passed


def test_criterion_12_inequality_suite(report_of):
    rep = report_of("inequalities")
    d = rep.details
    viols = {k: v["max_violation"] for k, v in d.items()
             if isinstance(v, dict) and "max_violation" in v}
    _report_line(
        "criterion 12", rep,
        f" max violations {viols}, reconstruction {d['decomposition_reconstruction_max']:.1e}",
    )
    for name in ("gagliardo", "banica", "strauss", "radial_gn"):
        assert d[name]["max_violation"] <= 1e-6, name
        assert d[name]["trials"] >= 100
    assert d["decomposition_reconstruction_max"] < 1e-10
    assert rep.passed
