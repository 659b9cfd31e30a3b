"""Spectral densities: closed forms, assembly, SQL, thresholds, figures."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from trimova import model, oracle, spectra, transfer
from trimova.model import RegimeWarning, Squeezing, StabilityError
from trimova.spectra import closed_form_psd, spectrum_series, sql_psd
from trimova.transfer import Channel, PoleError

G0, GE = model.reference_rates()


def config(kind="none", frac=0.0, lossless=False, gamma_m=None, K0=None,
           N0=None):
    if N0 is not None:
        K0 = N0 * (G0 + GE) / (G0 - GE)
    squeeze = Squeezing() if kind == "none" else Squeezing(kind, frac * G0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return model.reference_config(squeeze=squeeze, lossless=lossless,
                                      gamma_m=gamma_m, K0=K0)


# --- baseline closed form (independent arithmetic) --------------------------------

def baseline_reference(cfg, w):
    """Literal no-squeezing spectrum: thermal + shot + back action."""
    gm = cfg.mechanical.gamma_m
    n_T = cfg.derived.n_T
    g = cfg.cavity.gamma
    pump = np.abs(cfg.derived.K0 * g * g / (g * g + w * w) * np.exp(0j))
    # lossless cavity: |pump response| = K0*g^2/|g - iW|^2
    return 2 * gm * (2 * n_T + 1) + (gm**2 + w**2) / pump + pump


def test_assembled_matches_baseline_reference():
    cfg = config(lossless=True)
    w = spectra.default_grid(cfg, points=50)
    got = spectrum_series(cfg, "baseline", w).values
    assert np.allclose(got, baseline_reference(cfg, w), rtol=1e-12)


def test_baseline_quantum_only():
    mech = model.MechanicalOscillator(5e-8, 2 * math.pi * 350e3, 0.0, 0.0)
    base = config(lossless=True)
    cfg = model.SystemConfig(mech, base.cavity, Squeezing(),
                             model.DriveConfig(K0=base.derived.K0),
                             base.signal)
    w = spectra.default_grid(cfg, points=20)
    pump = cfg.derived.K0 * base.cavity.gamma**2 / np.abs(
        base.cavity.gamma - 1j * w) ** 2
    assert np.allclose(closed_form_psd("baseline", cfg, w),
                       w**2 / pump + pump, rtol=1e-12)


# --- dual-path equality -------------------------------------------------------------

CASE_MATRIX = [(case, "none", 0.0, lossless)
               for case in ("baseline", "baseline-sub")
               for lossless in (True, False)] \
    + [(case, kind, frac, False)
       for case, kind in [("nondeg-raw", "two_photon"),
                          ("nondeg-sub", "two_photon"),
                          ("deg-raw", "degenerate"),
                          ("deg-sub", "degenerate")]
       for frac in (0.0, 0.5, 0.9)]


@pytest.mark.parametrize("case,kind,frac,lossless", CASE_MATRIX)
def test_dual_path(case, kind, frac, lossless):
    cfg = config(kind, frac, lossless=lossless)
    w = spectra.default_grid(cfg)
    assembled = spectrum_series(cfg, case, w).values
    closed = closed_form_psd(case, cfg, w)
    assert np.max(np.abs(assembled - closed) / closed) < 1e-10
    assert np.all(assembled >= 0) and np.all(np.isfinite(assembled))


@pytest.mark.parametrize("case", ["nondeg-raw", "nondeg-sub"])
def test_closed_form_finite_where_pump_response_cancels(case):
    # At kappa = gamma0 - gamma_e the squeezed-pair reflection and the pump
    # response share a zero/pole at Omega = 0 that cancels in the spectrum.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        cfg = model.reference_config(squeeze=Squeezing("two_photon", G0 - GE))
    w = np.concatenate([[0.0], np.geomspace(1e-6 * G0, 10 * G0, 60)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        closed = closed_form_psd(case, cfg, w)
    assert np.all(np.isfinite(closed)) and np.all(closed > 0)
    assembled = spectrum_series(cfg, case, w).values
    assert np.max(np.abs(assembled - closed) / closed) < 1e-10


def test_degenerate_subtraction_pole():
    # At upsilon = gamma0 - gamma_e the reference port reflects no vacuum at
    # Omega = 0, so the subtraction filter is undefined there; both paths
    # refuse it with the same error and agree just beside it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        cfg = model.reference_config(squeeze=Squeezing("degenerate", G0 - GE))
    paths = (lambda w: closed_form_psd("deg-sub", cfg, w),
             lambda w: spectrum_series(cfg, "deg-sub", w).values)
    messages = set()
    for path in paths:
        with pytest.raises(PoleError) as err:
            path([0.0])
        messages.add(str(err.value))
    assert len(messages) == 1
    closed, assembled = (path([1e-6 * G0]) for path in paths)
    assert np.all(np.isfinite(closed)) and np.all(closed > 0)
    assert np.max(np.abs(assembled - closed) / closed) < 1e-10


@settings(max_examples=200, deadline=None)
@given(lossless=st.booleans(),
       kind=st.sampled_from(["none", "two_photon", "degenerate"]),
       rate=st.floats(0.0, 0.95),
       k0_decades=st.floats(-2.0, 2.0),
       gamma_m_decades=st.none() | st.floats(-6.0, -1.0))
def test_paths_agree_on_drawn_configs(lossless, kind, rate, k0_decades,
                                      gamma_m_decades):
    # rate in units of gamma, K0 in decades of pi/tau, gamma_m = 0 (None) or
    # in decades of gamma0.
    squeeze = Squeezing() if kind == "none" \
        else Squeezing(kind, rate * (G0 + GE))
    gamma_m = 0.0 if gamma_m_decades is None else 10.0**gamma_m_decades * G0
    K0 = 10.0**k0_decades * math.pi / model.TAU_PRESETS["table1"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        cfg = model.reference_config(squeeze=squeeze, lossless=lossless,
                                     gamma_m=gamma_m, K0=K0)
    w = np.geomspace(1e-4 * G0, 10 * G0, 40)
    for case in (c for c, k in spectra.CASE_KIND.items() if k == kind):
        closed = closed_form_psd(case, cfg, w)
        assembled = spectrum_series(cfg, case, w).values
        for values in (closed, assembled):
            assert np.all(np.isfinite(values)) and np.all(values > 0), case
        assert np.max(np.abs(assembled - closed) / closed) < 1e-10, case
    # Fourier kernel exp(-i*Omega*t): every coefficient obeys
    # c(-Omega) = conj(c(Omega)).
    for port in transfer.PORTS:
        pos = transfer.transfer_coefficients(cfg, port, w)
        neg = transfer.transfer_coefficients(cfg, port, -w)
        for ch in Channel:
            np.testing.assert_allclose(neg[ch], np.conj(pos[ch]), rtol=1e-14,
                                       atol=0, err_msg=f"{port} {ch.value}")


@settings(max_examples=150, deadline=None)
@given(lossless=st.booleans(),
       kind=st.sampled_from(["two_photon", "degenerate"]),
       offset=st.floats(-1e-12, 1e-12),
       k0_decades=st.floats(-2.0, 2.0),
       gamma_m_decades=st.none() | st.floats(-6.0, -1.0))
def test_stability_edge_fails_loudly(lossless, kind, offset, k0_decades,
                                     gamma_m_decades):
    # Rates within 1e-12 of the stability bound gamma: each path either
    # raises StabilityError or PoleError or returns finite values, Omega = 0
    # included; never inf or NaN (RuntimeWarnings are errors in this suite).
    gamma_m = 0.0 if gamma_m_decades is None else 10.0**gamma_m_decades * G0
    K0 = 10.0**k0_decades * math.pi / model.TAU_PRESETS["table1"]
    rate = (G0 + GE) * (1.0 + offset)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            cfg = model.reference_config(squeeze=Squeezing(kind, rate),
                                         lossless=lossless, gamma_m=gamma_m,
                                         K0=K0)
    except StabilityError:
        assert rate >= G0 + GE
        return
    paths = [lambda case, w: closed_form_psd(case, cfg, w),
             lambda case, w: spectrum_series(cfg, case, w).values]
    # Omega = 0 on its own, so that a pole there does not skip the rest.
    grids = [np.array([0.0]), np.geomspace(1e-4 * G0, 10 * G0, 40)]
    for case in (c for c, k in spectra.CASE_KIND.items() if k == kind):
        for path, w in itertools.product(paths, grids):
            try:
                values = path(case, w)
            except (StabilityError, PoleError):
                continue
            assert np.all(np.isfinite(values)), case
    ss = oracle.build_state_space(cfg)
    for name in ("drift", "noise_gain", "output_gain", "feedthrough",
                 "channel_psd", "signal_gain"):
        assert np.all(np.isfinite(getattr(ss, name))), name


def test_case_requires_matching_squeezing():
    cfg = config("two_photon", 0.5)
    with pytest.raises(ValueError):
        closed_form_psd("baseline", cfg, 1e3)
    with pytest.raises(ValueError):
        closed_form_psd("deg-raw", cfg, 1e3)
    with pytest.raises(ValueError):
        closed_form_psd("not-a-case", config(), 1e3)


def test_reductions_between_cases():
    ideal = config(lossless=True)
    w = spectra.default_grid(ideal, points=30)
    # two-photon forms at kappa = 0 without loss collapse onto the baseline
    assert np.allclose(closed_form_psd("nondeg-raw", ideal, w),
                       closed_form_psd("baseline", ideal, w), rtol=1e-12)
    assert np.allclose(closed_form_psd("nondeg-sub", ideal, w),
                       closed_form_psd("baseline-sub", ideal, w), rtol=1e-12)
    # with squeezing but no loss the subtraction removes back action fully
    pumped = config("two_photon", 0.7, lossless=True)
    sub = closed_form_psd("nondeg-sub", pumped, w)
    thermal = 2 * pumped.mechanical.gamma_m * (2 * pumped.derived.n_T + 1)
    shot = closed_form_psd("nondeg-raw", pumped, w) - thermal
    assert np.all(sub <= shot + thermal)


# --- SQL ---------------------------------------------------------------------------

def test_sql_psd_values():
    assert sql_psd(3.0, 0.0) == 6.0
    assert sql_psd(0.0, 5.0) == 10.0


def test_sql_is_minimum_over_pump():
    rng = np.random.default_rng(7)
    for _ in range(100):
        gm = 10.0 ** rng.uniform(-3, 6)
        w = 10.0 ** rng.uniform(-3, 7)
        target = 2.0 * math.sqrt(gm**2 + w**2)
        res = minimize_scalar(
            lambda u: (gm**2 + w**2) * math.exp(-u) + math.exp(u),
            bounds=(math.log(target) - 20, math.log(target) + 20),
            method="bounded", options={"xatol": 1e-12})
        assert abs(res.fun - target) <= 1e-10 * target


def test_quantum_noise_never_below_sql():
    rng = np.random.default_rng(11)
    gm = 1.0
    for _ in range(200):
        pump = 10.0 ** rng.uniform(-4, 6)
        w = 10.0 ** rng.uniform(-4, 6)
        assert (gm**2 + w**2) / pump + pump >= sql_psd(gm, w) * (1 - 1e-12)


def test_ratio_minimum_at_pump_crossing():
    # Lossless and undamped, the baseline is W^2/P + P with the pump
    # response P(W) = K0*g^2/(g^2 + W^2): the SQL ratio (W/P + P/W)/2
    # attains exactly 1 where W = P(W), the real root of
    # W^3 + g^2*W - K0*g^2 = 0, and is at least 1 everywhere.
    cfg = config(lossless=True, gamma_m=0.0)
    k0, g = cfg.derived.K0, cfg.cavity.gamma
    roots = np.roots([1.0, 0.0, g**2, -k0 * g**2])
    crossing = float(roots[np.argmin(np.abs(roots.imag))].real)
    value = closed_form_psd("baseline", cfg, crossing)
    assert value / sql_psd(0.0, crossing) == pytest.approx(1.0, rel=1e-12)
    w = spectra.default_grid(cfg)
    ratios = closed_form_psd("baseline", cfg, w) / sql_psd(0.0, w)
    assert np.min(ratios) >= 1.0 - 1e-12


def test_ratio_to_sql_series():
    cfg = config("two_photon", 0.9, gamma_m=0.0)
    series = spectrum_series(cfg, "nondeg-raw")
    ratio = spectra.ratio_to_sql(series)
    assert ratio.kind == "sql-ratio"
    assert np.min(ratio.values) < 1.0   # squeezing beats the SQL
    assert ratio.grid.size == series.grid.size  # gamma_m=0 but grid avoids 0


def test_subtracted_thermal_floor():
    # At overwhelming pump the lossless subtracted spectrum drops to the
    # thermal term.
    cfg = config(K0=1e12, lossless=True)
    w = spectra.default_grid(cfg, points=20, hi=0.1)
    thermal = 2 * cfg.mechanical.gamma_m * (2 * cfg.derived.n_T + 1)
    values = closed_form_psd("baseline-sub", cfg, w)
    assert np.allclose(values, thermal, rtol=1e-3)
    # With internal loss the loss-vacuum back action survives subtraction:
    # the excess over thermal is K0*gamma_e/gamma0, the loss limit on back
    # action evasion.
    lossy = config(K0=1e12)
    w = spectra.default_grid(lossy, points=20, hi=0.1)
    excess = closed_form_psd("baseline-sub", lossy, w) - thermal
    assert np.allclose(excess / (1e12 * GE / G0), 1.0, rtol=1e-2)


def test_subtracted_never_above_raw_two_photon():
    # Two-photon subtraction removes an independent noise contribution at
    # every frequency: the loss residual carries 1/|antisqueezed
    # reflection|^2 <= 1 and never exceeds the raw back action.
    for frac in (0.0, 0.5, 0.9):
        cfg = config("two_photon", frac)
        w = spectra.default_grid(cfg)
        raw = closed_form_psd("nondeg-raw", cfg, w)
        sub = closed_form_psd("nondeg-sub", cfg, w)
        assert np.all(sub <= raw * (1 + 1e-12))


def test_degenerate_subtraction_crossover():
    # The degenerate residual is amplified by 1/|zeta|^2; below the
    # |zeta|^2 = ge/g0 crossover (strong pump, low frequency) subtraction
    # becomes counterproductive.
    w = spectra.default_grid(config())
    for frac in (0.0, 0.5):
        cfg = config("degenerate", frac)
        assert np.all(closed_form_psd("deg-sub", cfg, w)
                      <= closed_form_psd("deg-raw", cfg, w) * (1 + 1e-12))
    strong = config("degenerate", 0.9)
    low = np.array([1e-3 * G0])
    assert closed_form_psd("deg-sub", strong, low)[0] > \
        closed_form_psd("deg-raw", strong, low)[0]


def backaction(cfg, case, w):
    """Back-action part of the budget: both sum-pair vacuum channels."""
    budget = spectrum_series(cfg, case, w, budget=True).budget
    return budget[Channel.ALPHA_PLUS.value] + budget[Channel.EPS_PLUS.value]


def test_loss_residual_scaling():
    # The subtracted residual scales with the loss fraction at fixed total
    # rate; compare doubling gamma_e against the closed-form factor.
    kappa = 0.5 * (G0 + GE)
    gamma = G0 + GE

    def residual(ge):
        g0 = gamma - ge
        cav = model.OpticalCavity(g0, ge, 0.1, config().cavity.omega0)
        mech = config().mechanical
        cfg = model.SystemConfig(mech, cav, Squeezing("two_photon", kappa),
                                 model.DriveConfig(K0=math.pi / 28e-6),
                                 model.SignalPulse(tau=28e-6))
        w = np.array([0.01 * gamma])
        return float(backaction(cfg, "nondeg-sub", w)[0]), cfg, w

    r1, cfg1, w = residual(GE)
    r2, cfg2, _ = residual(2 * GE)

    def expected(cfg):
        cav = cfg.cavity
        d_m = cav.gamma + kappa - 1j * w
        ba = cfg.derived.K0 * cav.gamma * (cav.gamma0 - cav.gamma_e) / np.abs(d_m) ** 2
        xi_p2 = np.abs(cav.gamma0 - cav.gamma_e + kappa + 1j * w) ** 2 \
            / np.abs(cav.gamma - kappa - 1j * w) ** 2
        return (ba * cav.gamma_e / (cav.gamma0 * xi_p2)).item()

    assert r2 / r1 == pytest.approx(expected(cfg2) / expected(cfg1), rel=1e-6)
    assert r2 / r1 == pytest.approx(2.0, rel=0.03)   # linear in the loss share


def test_degenerate_low_frequency_blowup():
    w = np.array([1e-3 * G0])
    tau = 28e-6
    n0 = 4 * math.pi / tau
    strong = closed_form_psd("deg-sub", config("degenerate", 0.9, N0=n0), w)
    weak = closed_form_psd("deg-sub", config("degenerate", 0.5, N0=n0), w)
    assert strong[0] > weak[0]


def test_backaction_term_ratio_two_photon_vs_degenerate():
    # Matched pump normalizations and equal rates: the raw back-action terms
    # differ by (g0 - ge)/(g0 + ge).
    k0 = math.pi / 28e-6
    cn = config("two_photon", 0.5, gamma_m=0.0, K0=k0)
    cd = config("degenerate", 0.5, gamma_m=0.0, N0=k0)
    w = np.array([1e-6 * G0])
    ratio = backaction(cn, "nondeg-raw", w)[0] / backaction(cd, "deg-raw", w)[0]
    assert ratio == pytest.approx((G0 - GE) / (G0 + GE), rel=1e-8)


def test_budget_additivity():
    cfg = config("two_photon", 0.5)
    series = spectrum_series(cfg, "nondeg-raw", budget=True)
    total = sum(series.budget.values())
    assert np.max(np.abs(total - series.values) / series.values) < 1e-12
    assert set(series.budget) == {c.value for c in Channel} - {"signal"}


# --- thresholds ----------------------------------------------------------------------

def test_spectral_threshold_formula():
    cfg = config("two_photon", 0.5)
    tau = cfg.signal.tau
    w = 0.1 * G0
    got = spectra.detection_threshold_spectral(cfg, "nondeg-raw", omega=w)
    assert got == pytest.approx(
        math.sqrt(float(closed_form_psd("nondeg-raw", cfg, w)) / tau), rel=1e-12)


def test_spectral_threshold_pipeline_regression():
    got = spectra.detection_threshold_spectral(config("two_photon", 0.9),
                                               "nondeg-sub")
    assert got == pytest.approx(43246.9826, rel=1e-6)


def test_time_domain_thresholds():
    cfg = config()
    report = spectra.detection_threshold_time_domain(cfg)
    tau = cfg.signal.tau
    gm = cfg.mechanical.gamma_m
    assert report.pump_optimum == pytest.approx(
        math.sqrt(gm**2 + (2 * math.pi / tau) ** 2 / 3.0), rel=1e-14)
    assert report.braginsky == pytest.approx(0.75, rel=0.05)
    assert report.band_integrated_force == pytest.approx(7.18315e-13, rel=1e-5)
    assert report.sql_form_force == pytest.approx(9.11149e-13, rel=1e-5)
    assert report.sql_limit_force == pytest.approx(6.55154e-13, rel=1e-5)


def test_quantum_terms_ratio_is_inverse_sqrt3():
    mech = model.MechanicalOscillator(5e-8, 2 * math.pi * 350e3, 0.0, 0.0)
    base = config()
    cfg = model.SystemConfig(mech, base.cavity, Squeezing(),
                             model.DriveConfig(K0=base.derived.K0), base.signal)
    report = spectra.detection_threshold_time_domain(cfg)
    ratio = report.band_integrated_f**2 / report.sql_form_f**2
    assert ratio == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert report.pump_optimum == pytest.approx(
        (2 * math.pi / cfg.signal.tau) / math.sqrt(3.0), rel=1e-14)


def test_spectral_and_time_domain_same_scale():
    # At the optimal flat pump the band-integrated amplitude exceeds the
    # single-frequency one by the bandwidth average and quadrature
    # conventions; the two stay within a small constant of each other.
    mech = model.MechanicalOscillator(5e-8, 2 * math.pi * 350e3, 0.0, 0.0)
    base = config(lossless=True)
    report = spectra.detection_threshold_time_domain(
        model.SystemConfig(mech, base.cavity, Squeezing(),
                           model.DriveConfig(K0=base.derived.K0), base.signal))
    cfg = model.SystemConfig(mech, base.cavity, Squeezing(),
                             model.DriveConfig(K0=report.pump_optimum),
                             base.signal)
    # At Omega = 0 the pump response equals its flat (resonance) value.
    spectral = spectra.detection_threshold_spectral(cfg, "baseline", omega=0.0)
    assert 1.0 <= report.band_integrated_f / spectral <= 2.5


def test_threshold_warns_for_long_pulses():
    cfg = config()
    with pytest.warns(RegimeWarning, match="short-pulse"):
        spectra.detection_threshold_time_domain(cfg, tau=30.0)


# --- series output -------------------------------------------------------------------

def test_series_csv_json_round_trip(tmp_path):
    cfg = config("two_photon", 0.5)
    series = spectrum_series(cfg, "nondeg-raw", budget=True)
    csv_path = tmp_path / "series.csv"
    series.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].split(",")[:2] == ["omega_rad_s", "value"]
    assert len(lines) == series.grid.size + 1
    back = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 1], series.values, rtol=1e-15)

    json_path = tmp_path / "series.json"
    series.write_json(json_path)
    doc = json.loads(json_path.read_text())
    assert doc["case"] == "nondeg-raw"
    assert doc["config"]["squeeze"]["type"] == "two_photon"
    rebuilt = model.parse_config(doc["config"])
    assert rebuilt.derived.K0 == pytest.approx(cfg.derived.K0, rel=1e-12)


def test_series_output_deterministic(tmp_path):
    cfg = config("degenerate", 0.5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    spectrum_series(cfg, "deg-raw").write_csv(a)
    spectrum_series(cfg, "deg-raw").write_csv(b)
    assert a.read_bytes() == b.read_bytes()


# --- figure presets ------------------------------------------------------------------

def test_figure_curve_structure():
    curves = spectra.figure_curves("fig5", points=120)
    assert set(curves) == {"kappa_0g0", "kappa_0.5g0", "kappa_0.9g0"}
    for series in curves.values():
        assert series.grid.size == 120
        assert series.kind == "sql-ratio"


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        spectra.figure_curves("fig99")


def test_fig3_uses_long_pulse():
    cfg = spectra.figure_config("fig3", 0.0)
    assert cfg.signal.tau == pytest.approx(0.28e-3)
    assert cfg.derived.K0 == pytest.approx(math.pi / 0.28e-3)
