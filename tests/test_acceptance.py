"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every expected value is either a closed form checked against
an independent quadrature/Monte-Carlo oracle in this file or in the module
tests, or a seeded statistical bound.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from relclock.correlators import EnvironmentSpec
from relclock.gkls import (
    DensityMatrix,
    GKLSModel,
    build_generator,
    cp_choi_check,
    qubit_decay_model,
)
from relclock.hybridcq import CQKernels, CQModel, HybridState, cq_evolve_grid, tradeoff_check
from relclock.integrability import (
    MomentumGridModel,
    SliceLattice,
    boost_interchange_residual,
    functional_curl_residual,
)
from relclock.kernels import GaussianKernel
from relclock.langevin import ModeMoments, ModeParams, ccr_defect, mode_evolve_moments, stationary_fdr_check
from relclock.rates import (
    RateQuery,
    assemble_kossakowski,
    kappa_markov_kms,
    kappa_markov_vacuum,
    kappa_tcl_kms,
    kappa_tcl_vacuum,
    odd_kernel_transform,
)
from relclock.specfun import bose_occupation
from relclock.trajectories import ensemble_check, sample_colored_noise, unravel_linear

VAC = EnvironmentSpec(mass_E=1.0, coupling_g=1.0)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 0], [1, 0]], dtype=complex)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def test_01_vacuum_markov_closed_form():
    t0 = time.perf_counter()
    value = kappa_markov_vacuum(VAC, -2.0)
    exact = math.sqrt(3.0) / (2.0 * math.pi)
    ok = abs(value - exact) <= 1e-12
    ok &= all(
        kappa_markov_vacuum(VAC, om) == 0.0
        for om in np.linspace(-0.999, 5.0, 200)
    )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, "vacuum-markov-closed-form", ok, f"|err|={abs(value - exact):.2e} t={elapsed:.2f}s")


def test_02_markov_convergence_order():
    t0 = time.perf_counter()
    km = kappa_markov_vacuum(VAC, -3.0)
    sigmas = np.array([2.0, 5.0, 10.0, 20.0])
    rels = np.array([
        abs(kappa_tcl_vacuum(RateQuery(omega=-3.0, kernel=GaussianKernel(s), env=VAC)) - km) / km
        for s in sigmas
    ])
    order = -np.polyfit(np.log(sigmas), np.log(rels), 1)[0]
    decreasing = all(rels[i] > rels[i + 1] for i in range(3))
    ok = decreasing and abs(order - 2.0) <= 0.35 and rels[2] <= 1e-3
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(2, "markov-convergence-order-2", ok,
            f"order={order:.3f} rel@10={rels[2]:.2e} t={elapsed:.2f}s")


def test_03_no_heating_suppression():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for s in (5.0, 10.0):
        hot = kappa_tcl_vacuum(RateQuery(omega=+1.0, kernel=GaussianKernel(s), env=VAC))
        cold = kappa_tcl_vacuum(RateQuery(omega=-3.0, kernel=GaussianKernel(s), env=VAC))
        ratio = hot / cold
        worst = max(worst, ratio)
        ok &= ratio <= 1e-10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(3, "no-heating-suppression", ok, f"worst ratio={worst:.2e} t={elapsed:.2f}s")


def test_04_dawson_odd_fourier_identity():
    t0 = time.perf_counter()
    sigma = 1.0
    worst = 0.0
    for Om in np.geomspace(0.1, 10.0, 20):
        quad_val = -2.0 * integrate.quad(
            lambda s: math.exp(-0.5 * (s / sigma) ** 2),
            0.0, 14.0 * sigma, weight="sin", wvar=Om, limit=400,
        )[0]
        closed = odd_kernel_transform(sigma, Om).imag
        worst = max(worst, abs(closed - quad_val) / abs(closed))
    ok = worst <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(4, "dawson-odd-fourier-identity", ok, f"worst rel={worst:.2e} t={elapsed:.2f}s")


def test_05_detailed_balance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(0.2, 4.0)
        om = rng.uniform(1.0, 6.0)
        env = EnvironmentSpec(beta=beta)
        lhs = kappa_markov_kms(env, om) * math.exp(beta * om)
        rhs = kappa_markov_kms(env, -om)
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1.0))
    ok = worst <= 1e-12
    env = EnvironmentSpec(beta=1.0)
    devs = []
    for s in (2.0, 5.0, 10.0, 20.0):
        ker = GaussianKernel(s)
        up = kappa_tcl_kms(RateQuery(omega=2.0, kernel=ker, env=env))
        down = kappa_tcl_kms(RateQuery(omega=-2.0, kernel=ker, env=env))
        devs.append(abs(up * math.exp(2.0) / down - 1.0))
    monotone = all(devs[i] > devs[i + 1] for i in range(3))
    ok &= monotone
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(5, "detailed-balance", ok,
            f"markov worst={worst:.2e} finite-sigma devs={['%.1e' % d for d in devs]} t={elapsed:.2f}s")


def test_06_kossakowski_positivity_and_choi():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    ker = GaussianKernel(3.0)
    ok = True
    worst_margin = 0.0
    worst_choi = 0.0
    for _ in range(100):
        n_c = int(rng.integers(2, 4))
        A = rng.normal(size=(n_c, n_c)) + 1j * rng.normal(size=(n_c, n_c))
        phases = A @ A.conj().T
        om0 = rng.uniform(1.5, 4.0)
        queries = [RateQuery(omega=s * om0, kernel=ker, env=VAC) for s in (-1.0, 1.0)]
        blk = assemble_kossakowski(queries, phases)
        trace = np.real(np.trace(blk.matrix))
        ok &= blk.psd_margin >= -1e-10 * max(trace, 1.0)
        worst_margin = min(worst_margin, blk.psd_margin)
        jumps = []
        for _, om in blk.labels:
            jumps.append((SM if om < 0 else SM.conj().T, om))
        model = GKLSModel(
            dim=2, hamiltonian=0.5 * om0 * SZ, jump_operators=jumps,
            kossakowski=blk.matrix,
        )
        gen = build_generator(model)
        norm = np.linalg.norm(gen.matrix, 2)
        if norm == 0.0:
            continue
        for dt_frac in (1e-3, 1e-2, 1e-1):
            verdict = cp_choi_check(gen, dt_frac / norm)
            ok &= verdict.is_cp
            worst_choi = min(worst_choi, verdict.min_choi_eigenvalue)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(6, "kossakowski-positivity-choi", ok,
            f"worst margin={worst_margin:.2e} worst choi={worst_choi:.2e} t={elapsed:.2f}s")


def test_07_ccr_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        gamma = rng.uniform(0.05, 3.0)
        tau = rng.uniform(0.0, 10.0) / gamma
        worst = max(worst, ccr_defect(ModeParams(energy_E=1.0, gamma=gamma), tau))
    ok = worst <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(7, "ccr-preservation", ok, f"worst defect={worst:.2e} t={elapsed:.2f}s")


def test_08_fdr_thermalization():
    t0 = time.perf_counter()
    beta, E = 1.0, 2.0
    nbar = bose_occupation(E, beta)
    sym, pred, dev = stationary_fdr_check(ModeParams(E, 1.0, nbar), beta)
    ok = dev <= 1e-9 and pred == pytest.approx(0.5 / math.tanh(0.5 * beta * E), rel=1e-12)
    # cross-module: ideal-clock thermal rates thermalize the mode
    env = EnvironmentSpec(beta=beta)
    kp, km = kappa_markov_kms(env, +E), kappa_markov_kms(env, -E)
    p = ModeParams(energy_E=E, gamma=kp + km, nbar=kp / (km - kp))
    stat = mode_evolve_moments(p, ModeMoments(occupation_n=9.0), 60.0 / p.gamma)
    dev2 = abs(stat.occupation_n - bose_occupation(E, beta))
    ok &= dev2 <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(8, "fdr-thermalization", ok, f"dev={dev:.2e} cross={dev2:.2e} t={elapsed:.2f}s")


def test_09_trajectory_master_equation_equivalence():
    t0 = time.perf_counter()
    model = qubit_decay_model(1.0, 1.0)
    rho0 = DensityMatrix.pure([1.0, 0.0])
    ens = unravel_linear(model, rho0, t=1.0, dt=1e-3, n_traj=10_000, seed=909)
    max_dev = ensemble_check(ens, model, rho0, 1e-3).max_deviation
    stat = float(ens.stat_error.max())
    ok = max_dev <= max(0.02, 5.0 * stat)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 2.0
    _report(9, "trajectory-master-equation", ok,
            f"max_dev={max_dev:.4f} bound={max(0.02, 5 * stat):.4f} t={elapsed:.1f}s")


def test_10_colored_noise_covariance():
    t0 = time.perf_counter()
    field = sample_colored_noise(
        VAC, GaussianKernel(1.0), np.linspace(0.0, 4.0, 32), 20_000, seed=1010
    )
    err = np.linalg.norm(field.covariance - field.target_covariance)
    rel = err / np.linalg.norm(field.target_covariance)
    ok = rel <= 0.05
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(10, "colored-noise-covariance", ok, f"frob rel={rel:.4f} t={elapsed:.1f}s")


def test_11_curl_null_violation_split():
    t0 = time.perf_counter()
    env = VAC
    ker = GaussianKernel(2.0)  # sigma * m_E = 2
    null_res, tilt_res = [], []
    for heights in ((0.0, 0.25, 0.1, -0.2), (0.0, 0.25, 0.1, -0.2, 0.3, 0.0)):
        null_lat = SliceLattice(n_sites=len(heights), heights=heights, spacing=1.0,
                                rate_mode="normal_independent")
        null_res.append(functional_curl_residual(null_lat, 1, 2, env, ker).value)
    for n in (4, 5, 6):
        tilted = SliceLattice.tilted(n, 1.0, 0.3, rate_mode="normal_sampled")
        tilt_res.append(functional_curl_residual(tilted, 1, 2, env, ker).value)
    separation = min(tilt_res) / max(max(null_res), 1e-300)
    ok = max(null_res) <= 1e-12 and min(tilt_res) >= 1e-3 and separation >= 1e9
    # sites 1 and 2 and their stencils are interior for n = 4, 5, 6
    ok &= max(tilt_res) - min(tilt_res) <= 1e-12 * max(tilt_res)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(11, "curl-null-violation-split", ok,
            f"null={max(null_res):.2e} tilted={tilt_res[0]:.2e} t={elapsed:.1f}s")


def test_12_boost_interchange_split():
    t0 = time.perf_counter()
    cov = boost_interchange_residual(
        MomentumGridModel(VAC, 64, 3.0, 3.0, "comoving_covariant")
    )
    geo = boost_interchange_residual(
        MomentumGridModel(VAC, 64, 3.0, 3.0, "geometric_normal")
    )
    decreasing = all(cov.residuals[i] / cov.residuals[i + 1] >= 1.7 for i in range(2))
    plateau = geo.residuals[1] / geo.residuals[2] < 1.7
    split = geo.residual / cov.residual
    ok = decreasing and cov.refinement_order >= 1.0 and plateau and split >= 100.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(12, "boost-interchange-split", ok,
            f"order={cov.refinement_order:.1f} split={split:.1e} t={elapsed:.1f}s")


def test_13_cq_tradeoff():
    t0 = time.perf_counter()
    boundary = tradeoff_check(CQKernels(2.0, 2.0, 1.0))
    ok = boundary.status == "satisfied" and abs(boundary.margin) <= 1e-12

    model = CQModel(2, np.zeros((2, 2), dtype=complex), [SZ])
    z = np.linspace(-8.0, 8.0, 64)
    rho = np.array([[0.5, 0.45], [0.45, 0.5]], dtype=complex)

    def run(kern, t_total=1.0, chunks=20):
        st = HybridState.gaussian_packet(z, 0.0, 0.5, rho)
        tr0 = st.total_trace()
        tc = t_total / chunks
        dt_max = min(0.2 * st.dz**2 / max(np.real(kern.d2[0, 0]), 1e-30), 2e-3)
        dt = tc / math.ceil(tc / dt_max)
        worst = st.min_block_eigenvalue()
        for _ in range(chunks):
            st = cq_evolve_grid(kern, model, st, tc, dt)
            worst = min(worst, st.min_block_eigenvalue())
        return worst, abs(st.total_trace() - tr0)

    worst_ok, drift_ok = run(CQKernels(2.0, 2.0, 1.0))
    worst_bad, drift_bad = run(CQKernels(1.0, 2.0, 1.0))
    ok &= worst_ok >= -1e-6
    ok &= worst_bad <= -1e-4
    ok &= drift_ok <= 1e-8 and drift_bad <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180.0
    _report(13, "cq-decoherence-diffusion-tradeoff", ok,
            f"margin={boundary.margin:.1e} ok_min={worst_ok:.1e} bad_min={worst_bad:.1e} t={elapsed:.1f}s")
