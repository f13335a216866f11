"""Batch front door: INI-style configs in, reproducible CSV + JSON out.

Every run writes one or more CSV artifacts (full 17-significant-digit
precision, byte-stable for a fixed config and seed) and a ``summary.json``
echoing the inputs, the config hash, key outputs, and pass/fail checks.
Exit status: 0 on success, 2 when a declared invariant check fails, 1 on
errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv as _write_csv
from .correlators import EnvironmentSpec
from .gkls import DensityMatrix, build_generator, cp_choi_check, evolve, qubit_decay_model
from .hybridcq import CQKernels, CQModel, HybridState, cq_evolve_grid, tradeoff_check, write_hybrid_csv
from .integrability import MomentumGridModel, SliceLattice, boost_interchange_residual, functional_curl_residual
from .kernels import CoherentReadoutKernel, GaussianKernel
from .langevin import ModeMoments, ModeParams, stationary_fdr_check, write_moment_trajectory_csv
from .rates import RateQuery, kappa_markov, kappa_markov_kms, kappa_tcl, lamb_shift_coefficient
from .trajectories import ensemble_check, sample_colored_noise, unravel_linear, write_ensemble_csv

SCENARIOS = (
    "rates", "lamb_shift", "markov_limit", "kms", "gkls", "langevin",
    "unravel", "noise", "curl", "boost", "cq", "tradeoff",
)

STOCHASTIC = {"unravel", "noise"}


class ConfigError(ValueError):
    pass


@dataclass
class ScenarioConfig:
    scenario: str
    parameters: dict
    output_path: Path
    seed: int | None
    config_hash: str


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}")


def _parse_list(section, key, raw):
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number list, got {raw!r}")


def _parse_matrix(section, key, raw):
    try:
        rows = [
            [float(tok) for tok in row.replace(",", " ").split()]
            for row in raw.split(";")
        ]
        return np.array(rows)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected 'a b; c d' matrix, got {raw!r}")


_TYPES = {"float": _parse_float, "list": _parse_list, "matrix": _parse_matrix}

# (type, required, default); defaults marked None are filled contextually
_ENV_KEYS = {
    "mass_e": ("float", False, 1.0),
    "g": ("float", False, 1.0),
    "beta": ("float", False, math.inf),
    "rapidity": ("float", False, 0.0),
}
_KERNEL_KEYS = {
    "kind": ("str", False, "gaussian"),
    "sigma": ("float", False, None),  # default 5 / mass_e
    "r": ("float", False, 1.0),
    "omega_c": ("float", False, 1.0),
}

SCHEMA = {
    "rates": {"rates": {
        "omega_min": ("float", True, None),
        "omega_max": ("float", True, None),
        "omega_points": ("int", True, None),
    }},
    "markov_limit": {"markov_limit": {
        "omega": ("float", False, None),  # default -3 mass_e
        "sigmas": ("list", False, [2.0, 5.0, 10.0, 20.0]),
    }},
    "lamb_shift": {"lamb_shift": {
        "cutoff": ("float", False, None),  # default 40 mass_e
    }},
    "kms": {"kms": {
        "omega": ("float", False, None),  # default 2 mass_e
        "sigmas": ("list", False, [2.0, 5.0, 10.0, 20.0]),
    }},
    "gkls": {"gkls": {
        "omega0": ("float", False, 2.0),
        "t_max": ("float", False, 5.0),
        "n_times": ("int", False, 11),
    }},
    "langevin": {"langevin": {
        "energy": ("float", False, 2.0),
        "tau_max": ("float", False, 10.0),
        "n_times": ("int", False, 21),
        "n0": ("float", False, 5.0),
    }},
    "unravel": {"unravel": {
        "omega0": ("float", False, 1.0),
        "gamma": ("float", False, 1.0),
        "t": ("float", False, 1.0),
        "dt": ("float", False, 1e-3),
        "n_traj": ("int", False, 10_000),
        "n_out": ("int", False, 11),
    }},
    "noise": {"noise": {
        "t_span": ("float", False, 4.0),
        "grid_points": ("int", False, 32),
        "n_real": ("int", False, 20_000),
    }},
    "curl": {"curl": {
        "n_sites": ("int", False, 4),
        "tilt": ("float", False, 0.3),
        "spacing": ("float", False, 1.0),
        "site_energy": ("float", False, 3.0),
        "x": ("int", False, 1),
        "y": ("int", False, 2),
        "rate_mode": ("str", False, "normal_sampled"),
        "sigmas": ("list", False, [2.0]),
    }},
    "boost": {"boost": {
        "grid_size": ("int", False, 64),
        "theta_max": ("float", False, 3.0),
        "system_mass": ("float", False, 3.0),
        "d_rapidity": ("float", False, 1e-3),
    }},
    "cq": {"cq": {
        "d0": ("float", False, 2.0),
        "d1": ("float", False, 2.0),
        "d2": ("float", False, 1.0),
        "z_min": ("float", False, -8.0),
        "z_max": ("float", False, 8.0),
        "cells": ("int", False, 64),
        "t": ("float", False, 1.0),
        "packet_center": ("float", False, 0.0),
        "packet_width": ("float", False, 0.5),
        "coherence": ("float", False, 0.45),
    }},
    "tradeoff": {"tradeoff": {
        "d0": ("matrix", True, None),
        "d1": ("matrix", True, None),
        "d2": ("matrix", True, None),
    }},
}

#: grid sizes, and the least value each may take; a list's size is its length
_GRID_SIZES = {
    "rates.omega_points": 1,
    "gkls.n_times": 1,
    "langevin.n_times": 1,
    "noise.grid_points": 1,
    "cq.cells": 2,
    "boost.grid_size": 8,  # the coarsest refinement grid, n/4, needs 2 modes
    "markov_limit.sigmas": 1,
    "kms.sigmas": 1,
    "curl.sigmas": 1,
}

_USES_ENV_KERNEL = {
    "rates", "markov_limit", "lamb_shift", "kms", "gkls", "langevin",
    "noise", "curl", "boost",
}


def parse_config(
    text: str, scenario: str | None = None, seed_override: int | None = None
) -> ScenarioConfig:
    """Validate a key = value config document and fill declared defaults.

    Unknown sections or keys are rejected; missing required keys raise a
    :class:`ConfigError` naming the key.  Stochastic scenarios must carry a
    seed (reproducibility contract); ``seed_override`` substitutes for a
    config-file seed.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if "run" not in cp:
        raise ConfigError("missing required section [run]")
    run = dict(cp["run"])
    declared = run.pop("scenario", None)
    if scenario is None:
        scenario = declared
    elif declared is not None and declared != scenario:
        raise ConfigError(f"config declares scenario {declared!r}, command asked for {scenario!r}")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    seed = None
    if "seed" in run:
        try:
            seed = int(run.pop("seed"))
        except ValueError:
            raise ConfigError("[run] seed: expected an integer")
    if seed_override is not None:
        seed = seed_override
    output = Path(run.pop("output", "."))
    if run:
        raise ConfigError(f"unknown key in [run]: {sorted(run)[0]!r}")
    if scenario in STOCHASTIC and seed is None:
        raise ConfigError(f"scenario {scenario!r} is stochastic: [run] seed is required")

    allowed = dict(SCHEMA[scenario])
    if scenario in _USES_ENV_KERNEL:
        allowed["env"] = _ENV_KEYS
        allowed["kernel"] = _KERNEL_KEYS
    params: dict = {}
    for sec in cp.sections():
        if sec == "run":
            continue
        if sec not in allowed:
            raise ConfigError(f"unknown section [{sec}] for scenario {scenario!r}")
    for sec, keys in allowed.items():
        got = dict(cp[sec]) if sec in cp else {}
        for key in got:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{sec}]")
        for key, (typ, required, default) in keys.items():
            if key in got:
                raw = got[key]
                if typ == "int":
                    try:
                        params[f"{sec}.{key}"] = int(raw)
                    except ValueError:
                        raise ConfigError(f"[{sec}] {key}: expected an integer, got {raw!r}")
                elif typ == "str":
                    params[f"{sec}.{key}"] = raw.strip()
                else:
                    params[f"{sec}.{key}"] = _TYPES[typ](sec, key, raw)
            elif required:
                raise ConfigError(f"missing required key {key!r} in [{sec}]")
            else:
                params[f"{sec}.{key}"] = default

    for name, least in _GRID_SIZES.items():
        value = params.get(name)
        size = len(value) if isinstance(value, list) else value
        if size is not None and size < least:
            sec, key = name.split(".")
            verb = "list" if isinstance(value, list) else "be"
            raise ConfigError(f"[{sec}] {key} must {verb} >= {least}, got {size}")

    # contextual defaults and unit-level validation
    if scenario in _USES_ENV_KERNEL:
        mass = params["env.mass_e"]
        if not mass > 0:
            raise ConfigError("mass_e must be > 0")
        if params["kernel.sigma"] is None:
            params["kernel.sigma"] = 5.0 / mass
        if not params["kernel.sigma"] > 0:
            raise ConfigError("sigma must be > 0")
        if params["kernel.kind"] not in ("gaussian", "coherent"):
            raise ConfigError(f"unknown kernel kind {params['kernel.kind']!r}")
        if scenario == "markov_limit" and params["markov_limit.omega"] is None:
            params["markov_limit.omega"] = -3.0 * mass
        if scenario == "lamb_shift" and params["lamb_shift.cutoff"] is None:
            params["lamb_shift.cutoff"] = 40.0 * mass
        if scenario == "kms" and params["kms.omega"] is None:
            params["kms.omega"] = 2.0 * mass
    if scenario == "cq" and not params["cq.t"] > 0:
        raise ConfigError(f"[cq] t must be > 0, got {params['cq.t']}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return ScenarioConfig(
        scenario=scenario, parameters=params, output_path=output,
        seed=seed, config_hash=digest,
    )


def _env_from(params) -> EnvironmentSpec:
    return EnvironmentSpec(
        mass_E=params["env.mass_e"],
        coupling_g=params["env.g"],
        beta=params["env.beta"],
        rapidity=params["env.rapidity"],
    )


def _kernel_from(params):
    if params["kernel.kind"] == "coherent":
        return CoherentReadoutKernel(R=params["kernel.r"], omega_C=params["kernel.omega_c"])
    return GaussianKernel(sigma=params["kernel.sigma"])


# ---------------------------------------------------------------------------
# scenario runners: return (outputs, checks, csv file names)
# ---------------------------------------------------------------------------

def _run_rates(cfg):
    p = cfg.parameters
    env, kernel = _env_from(p), _kernel_from(p)
    omegas = np.linspace(p["rates.omega_min"], p["rates.omega_max"], p["rates.omega_points"])
    rows = []
    nonneg = True
    for om in omegas:
        kt = kappa_tcl(RateQuery(omega=float(om), kernel=kernel, env=env))
        km = kappa_markov(env, float(om))
        nonneg &= kt >= 0.0 and km >= 0.0
        rows.append([om, kernel.width, env.beta, env.rapidity, kt, km, kt - km])
    out = cfg.output_path / "rates.csv"
    _write_csv(out, ["omega", "sigma", "beta", "rapidity", "kappa_tcl", "kappa_markov", "delta_kappa"], rows)
    return {"n_points": len(rows)}, {"nonnegative": bool(nonneg)}, [out.name]


def _run_markov_limit(cfg):
    p = cfg.parameters
    env, _ = _env_from(p), None
    om = p["markov_limit.omega"]
    km = kappa_markov(env, om)
    rows, rels = [], []
    for s in p["markov_limit.sigmas"]:
        kt = kappa_tcl(RateQuery(omega=om, kernel=GaussianKernel(sigma=s / env.mass_E), env=env))
        rel = abs(kt - km) / km if km > 0 else math.inf
        rels.append(rel)
        rows.append([s, kt, km, rel])
    out = cfg.output_path / "markov_limit.csv"
    _write_csv(out, ["sigma", "kappa_tcl", "kappa_markov", "rel_error"], rows)
    order = float("nan")
    if len(rels) >= 2 and all(r > 0 for r in rels):
        s = np.log(p["markov_limit.sigmas"])
        order = float(-np.polyfit(s, np.log(rels), 1)[0])
    converged = all(rels[i] > rels[i + 1] for i in range(len(rels) - 1)) and rels[-1] <= 1e-3
    return (
        {"rel_errors": rels, "observed_order": order},
        {"converged": bool(converged)},
        [out.name],
    )


def _run_lamb_shift(cfg):
    p = cfg.parameters
    env, kernel = _env_from(p), _kernel_from(p)
    cutoff = p["lamb_shift.cutoff"]
    coeff = lamb_shift_coefficient(env, kernel, cutoff)
    grid = np.linspace(0.5 * cutoff, cutoff, 9)
    # linspace ends exactly at the cutoff, so the last row reuses coeff
    fits = [lamb_shift_coefficient(env, kernel, float(L)) if L >= 10 * env.mass_E else None
            for L in grid[:-1]] + [coeff]
    rows = [[L, c.raw_value if c else math.nan, c.subtracted_value if c else math.nan]
            for L, c in zip(grid, fits)]
    out = cfg.output_path / "lamb_shift.csv"
    _write_csv(out, ["cutoff", "raw_value", "subtracted_value"], rows)
    expected_slope = env.coupling_g**2 / (2.0 * math.pi**2)
    slope_ok = abs(coeff.fit_slope - expected_slope) <= 0.02 * expected_slope
    return (
        {"raw_value": coeff.raw_value, "subtracted_value": coeff.subtracted_value,
         "fit_slope": coeff.fit_slope, "expected_tail_slope": expected_slope},
        {"tail_slope_within_2pct": bool(slope_ok)},
        [out.name],
    )


def _run_kms(cfg):
    p = cfg.parameters
    env = _env_from(p)
    if env.beta == math.inf:
        raise ConfigError("kms scenario requires a finite [env] beta")
    om = p["kms.omega"]
    markov_dev = abs(kappa_markov_kms(env, om) * math.exp(env.beta * om) - kappa_markov_kms(env, -om))
    rows, devs = [], []
    for s in p["kms.sigmas"]:
        ker = GaussianKernel(sigma=s / env.mass_E)
        kp = kappa_tcl(RateQuery(omega=+om, kernel=ker, env=env))
        kmn = kappa_tcl(RateQuery(omega=-om, kernel=ker, env=env))
        dev = abs(kp * math.exp(env.beta * om) / kmn - 1.0) if kmn > 0 else math.inf
        devs.append(dev)
        rows.append([s, kp, kmn, dev])
    out = cfg.output_path / "kms.csv"
    _write_csv(out, ["sigma", "kappa_plus", "kappa_minus", "db_deviation"], rows)
    monotone = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    return (
        {"markov_db_defect": markov_dev, "finite_sigma_deviations": devs},
        {"markov_detailed_balance": bool(markov_dev <= 1e-12),
         "deviation_monotone_in_sigma": bool(monotone)},
        [out.name],
    )


def _run_gkls(cfg):
    p = cfg.parameters
    env = _env_from(p)
    om0 = p["gkls.omega0"]
    gdown = kappa_markov(env, -om0)
    gup = kappa_markov(env, +om0)
    model = qubit_decay_model(om0, gdown, gup)
    rho = DensityMatrix.pure([1.0, 0.0])
    times = np.linspace(0.0, p["gkls.t_max"], p["gkls.n_times"])
    rows = []
    trace_ok = True
    for t in times:
        r = evolve(model, rho, float(t))
        trace_ok &= abs(np.trace(r.matrix).real - 1.0) <= 1e-10
        rows.append([t, r.matrix[0, 0].real, r.matrix[0, 1].real, r.matrix[0, 1].imag, r.matrix[1, 1].real])
    out = cfg.output_path / "gkls.csv"
    _write_csv(out, ["t", "rho_ee", "re_rho_eg", "im_rho_eg", "rho_gg"], rows)
    choi = cp_choi_check(build_generator(model), 0.01 / max(gdown + gup, om0))
    checks = {"trace_preserved": bool(trace_ok), "choi_cp": bool(choi.is_cp)}
    outputs = {"gamma_down": gdown, "gamma_up": gup, "min_choi_eigenvalue": choi.min_choi_eigenvalue}
    if env.beta != math.inf and gdown > 0:
        final = evolve(model, rho, 50.0 / max(gdown - gup, 1e-12)).matrix
        ratio = final[0, 0].real / final[1, 1].real
        outputs["steady_ratio"] = ratio
        checks["steady_detailed_balance"] = bool(abs(ratio - math.exp(-env.beta * om0)) <= 1e-9)
    return outputs, checks, [out.name]


def _run_langevin(cfg):
    p = cfg.parameters
    env = _env_from(p)
    E = p["langevin.energy"]
    if env.beta == math.inf:
        gamma = kappa_markov(env, -E)
        nbar = 0.0
    else:
        kp, kmn = kappa_markov_kms(env, +E), kappa_markov_kms(env, -E)
        gamma = kp + kmn
        nbar = kp / (kmn - kp) if kmn > kp else 0.0
    params = ModeParams(energy_E=E, gamma=gamma, nbar=nbar)
    taus = np.linspace(0.0, p["langevin.tau_max"], p["langevin.n_times"])
    out = cfg.output_path / "langevin.csv"
    defects = write_moment_trajectory_csv(
        out, params, ModeMoments(mean_a=1.0, occupation_n=p["langevin.n0"]), taus)
    ccr_ok = all(d <= 1e-12 for d in defects)
    outputs = {"gamma": gamma, "nbar": nbar}
    checks = {"ccr_preserved": bool(ccr_ok)}
    if env.beta != math.inf and gamma > 0:
        sym, pred, dev = stationary_fdr_check(params, env.beta)
        outputs.update({"symmetrized_occupation": sym, "coth_prediction": pred})
        checks["fdr"] = bool(dev <= 1e-9)
    return outputs, checks, [out.name]


def _run_unravel(cfg):
    p = cfg.parameters
    model = qubit_decay_model(p["unravel.omega0"], p["unravel.gamma"])
    rho0 = DensityMatrix.pure([1.0, 0.0])
    ens = unravel_linear(model, rho0, p["unravel.t"], p["unravel.dt"],
                         p["unravel.n_traj"], cfg.seed, n_out=p["unravel.n_out"])
    out = cfg.output_path / "unravel.csv"
    write_ensemble_csv(ens, out)
    check = ensemble_check(ens, model, rho0, p["unravel.dt"])
    return (
        {"stat_error": float(ens.stat_error.max()), **asdict(check)},
        {"mean_matches_master_equation": check.mean_ok,
         "mean_trace_within_errors": check.trace_ok},
        [out.name],
    )


def _run_noise(cfg):
    p = cfg.parameters
    env, kernel = _env_from(p), _kernel_from(p)
    grid = np.linspace(0.0, p["noise.t_span"], p["noise.grid_points"])
    field = sample_colored_noise(env, kernel, grid, p["noise.n_real"], cfg.seed)
    sample = field.covariance
    planes = (field.target_covariance.real, field.target_covariance.imag, sample.real, sample.imag)
    rows = ((i, j, *cells) for i in range(grid.size)
            for j, cells in enumerate(zip(*(plane[i].tolist() for plane in planes))))
    out = cfg.output_path / "noise_covariance.csv"
    _write_csv(out, ["i", "j", "re_target", "im_target", "re_sample", "im_sample"], rows)
    err = float(np.linalg.norm(sample - field.target_covariance) / np.linalg.norm(field.target_covariance))
    return (
        {"frobenius_rel_error": err, "clipped_mass": field.clipped_mass},
        {"covariance_within_5pct": bool(err <= 0.05)},
        [out.name],
    )


def _run_curl(cfg):
    p = cfg.parameters
    env = _env_from(p)
    rows = []
    last = None
    for s in p["curl.sigmas"]:
        kernel = GaussianKernel(sigma=s / env.mass_E)
        lat = SliceLattice.tilted(
            p["curl.n_sites"], p["curl.spacing"], p["curl.tilt"],
            rate_mode=p["curl.rate_mode"], site_energy=p["curl.site_energy"],
        )
        r = functional_curl_residual(lat, p["curl.x"], p["curl.y"], env, kernel)
        last = r
        rows.append([s, p["curl.tilt"], r.value, r.commutator_part, r.shape_part_xy, r.shape_part_yx])
    out = cfg.output_path / "curl.csv"
    _write_csv(out, ["sigma", "tilt_rapidity", "curl_residual", "commutator_part",
                     "shape_part_xy", "shape_part_yx"], rows)
    checks = {}
    null_geometry = p["curl.tilt"] == 0.0 or p["curl.rate_mode"] == "normal_independent"
    if null_geometry:
        checks["null_residual"] = bool(last.value <= 1e-12)
    return {"residual": last.value, "parts": [last.commutator_part, last.shape_part_xy, last.shape_part_yx]}, checks, [out.name]


def _run_boost(cfg):
    p = cfg.parameters
    env = _env_from(p)
    rows, outputs = [], {}
    results = {}
    for source in ("comoving_covariant", "geometric_normal"):
        model = MomentumGridModel(
            env, p["boost.grid_size"], p["boost.theta_max"], p["boost.system_mass"], source,
        )
        res = boost_interchange_residual(model, p["boost.d_rapidity"])
        results[source] = res
        for n, r in zip(res.grid_sizes, res.residuals):
            rows.append([n, source, r])
        outputs[source] = {"residuals": list(res.residuals), "order": res.refinement_order,
                           "baselines": list(res.baselines)}
    out = cfg.output_path / "boost.csv"
    _write_csv(out, ["grid_size", "rate_source", "residual"], rows)
    split = results["geometric_normal"].residual / max(results["comoving_covariant"].residual, 1e-300)
    outputs["split_at_finest"] = split
    checks = {
        "covariant_order_ge_1": bool(results["comoving_covariant"].refinement_order >= 1.0),
        "split_ge_100": bool(split >= 100.0),
    }
    return outputs, checks, [out.name]


def _run_cq(cfg):
    p = cfg.parameters
    kern = CQKernels(d0=p["cq.d0"], d1=p["cq.d1"], d2=p["cq.d2"])
    verdict = tradeoff_check(kern)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    model = CQModel(2, np.zeros((2, 2), dtype=complex), [sz])
    z = np.linspace(p["cq.z_min"], p["cq.z_max"], p["cq.cells"])
    c = p["cq.coherence"]
    st = HybridState.gaussian_packet(z, p["cq.packet_center"], p["cq.packet_width"],
                                     np.array([[0.5, c], [c, 0.5]], dtype=complex))
    t = p["cq.t"]
    dz = st.dz
    dt_max = min(0.2 * dz * dz / max(p["cq.d2"], 1e-30), 2e-3)
    n_chunks = 20
    tc = t / n_chunks
    dt = tc / math.ceil(tc / dt_max)
    min_eig = st.min_block_eigenvalue()
    tr0 = st.total_trace()
    for _ in range(n_chunks):
        st = cq_evolve_grid(kern, model, st, tc, dt)
        min_eig = min(min_eig, st.min_block_eigenvalue())
    out = cfg.output_path / "cq_final.csv"
    write_hybrid_csv(st, out)
    trace_drift = abs(st.total_trace() - tr0)
    outputs = {"tradeoff": verdict.to_json_dict(), "min_block_eigenvalue": min_eig,
               "trace_drift": trace_drift, "z_variance": st.z_variance()}
    checks = {"trace_conserved": bool(trace_drift <= 1e-8)}
    if verdict:
        checks["blocks_stay_positive"] = bool(min_eig >= -1e-6)
    return outputs, checks, [out.name]


def _run_tradeoff(cfg):
    p = cfg.parameters
    kern = CQKernels(d0=p["tradeoff.d0"], d1=p["tradeoff.d1"], d2=p["tradeoff.d2"])
    verdict = tradeoff_check(kern)
    out = cfg.output_path / "tradeoff.csv"
    _write_csv(out, ["margin", "range_ok", "verdict"],
               [[verdict.margin, str(verdict.range_ok), verdict.status]])
    return verdict.to_json_dict(), {}, [out.name]


_RUNNERS = {
    "rates": _run_rates,
    "markov_limit": _run_markov_limit,
    "lamb_shift": _run_lamb_shift,
    "kms": _run_kms,
    "gkls": _run_gkls,
    "langevin": _run_langevin,
    "unravel": _run_unravel,
    "noise": _run_noise,
    "curl": _run_curl,
    "boost": _run_boost,
    "cq": _run_cq,
    "tradeoff": _run_tradeoff,
}


def run_scenario(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Execute a validated config; write CSV artifacts plus summary.json."""
    cfg.output_path.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs, checks, files = _RUNNERS[cfg.scenario](cfg)
    wall = time.perf_counter() - start
    summary = {
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "outputs": outputs,
        "checks": checks,
        "wall_time_s": wall,
        "version": __version__,
        "artifacts": files,
    }
    with open(cfg.output_path / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
        fh.write("\n")
    ok = all(checks.values())
    if not quiet:
        for name, passed in checks.items():
            print(f"{cfg.scenario}: {name}: {'PASS' if passed else 'FAIL'}")
        print(f"{cfg.scenario}: wrote {', '.join(files)} and summary.json in {cfg.output_path}")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relclock",
        description="clock-smeared open-system rate and dynamics scenarios",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="INI-style config file")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--output", default=None, help="override [run] output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
        cfg = parse_config(text, scenario=args.scenario, seed_override=args.seed)
        if args.output is not None:
            cfg.output_path = Path(args.output)
        return run_scenario(cfg, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error [{args.scenario}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
