"""Batch front door: INI-style configs in, reproducible CSV + JSON out.

Every run writes one or more CSV artifacts (full 17-significant-digit
precision, byte-stable for a fixed config and seed) and a ``summary.json``
echoing the inputs, the config hash, key outputs, and pass/fail checks.
``noise_covariance.csv`` has one row per lag of the Hermitian Toeplitz noise
covariance: target, sample lag mean, standard error (``trajectories._lag_summary``).
Exit status: 0 on success, 2 when a declared invariant check fails, 1 on
errors, which stderr names by scenario and stage (parse, compute or write);
``--traceback`` prints the traceback too.

No scenario loads OpenSSL (about 3.5 MB resident): configs are hashed by
CPython's built-in SHA-256, and the package makes its own Philox streams.

A scenario's ``SCHEMA`` entry declares exactly the keys its computation
reads, and any other key is refused as unknown.  So only ``rates`` and
``markov_limit`` take ``[env] rapidity`` (the two whose rate integral takes
the tilt), ``lamb_shift`` and ``boost`` take no ``[env] beta`` (both compute
vacuum values), and ``lamb_shift``'s ``[kernel]`` is ``sigma`` alone (its
coefficient is Gaussian-only).

Each ``SCHEMA`` key declares its domain: the accepted words of a string, or
an interval such as ``(0, inf)`` that every number of a value (a list's or a
matrix's too) must lie in.  nan lies in none, and an infinity only in an
interval closed at it: ``[env] beta``, ``(0, inf]`` where +inf is the vacuum,
alone.  A value outside raises one :class:`ConfigError` naming ``[section]
key``, the domain and the value.  Library caps (4096 noise points, 64 boost
modes in multiples of 4) are not repeated there: they stay library errors.
``curl`` has no site cap, as its operators live on the two sites {x, y}.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv as _write_csv

try:  # the same digest as hashlib's, without OpenSSL (module docstring)
    from _sha2 import sha256 as _sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

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


#: the default of a key that every config must set
REQUIRED = object()


def _parse_list(raw):
    values = [float(tok) for tok in raw.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


def _parse_matrix(raw):
    return np.array([_parse_list(row) for row in raw.split(";")])


#: each type's parser of the raw string, and what it expects
_TYPES = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "str": (str.strip, "a word"),
    "list": (_parse_list, "a non-empty number list"),
    "matrix": (_parse_matrix, "an 'a b; c d' matrix"),
}


def _check(sec, key, value, domain):
    """``value`` if it lies in ``domain``, element by element: a tuple of the
    accepted words, or an interval such as ``"(0, inf)"`` or ``"[-0.5, 0.5]"``.
    nan lies in no interval and +-inf only in one closed at it.  Otherwise
    one :class:`ConfigError` names the key, the domain and the value."""
    if isinstance(domain, tuple):
        if value not in domain:
            raise ConfigError(f"[{sec}] {key} must be one of {', '.join(domain)}, got {value!r}")
        return value
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    lo_in, hi_in = domain[0] == "[", domain[-1] == "]"
    for x in np.ravel(value).tolist():
        if (lo < x or lo_in and x == lo) and (x < hi or hi_in and x == hi):
            continue
        if not math.isfinite(x):
            need = "finite"
        elif x <= lo:
            need = f">{'=' * lo_in} {lo:g}"
        else:
            need = f"<{'=' * hi_in} {hi:g}"
        raise ConfigError(f"[{sec}] {key} must be {need} (domain {domain}), got {x}")
    return value


# (type, default, domain) per key; a default of None is set in units of
# [env] mass_e (_MASS_UNITS), so [env] comes first in each scenario's entry;
# each scenario declares only the keys it reads (module docstring)
_VACUUM = {
    "mass_e": ("float", 1.0, "(0, inf)"),
    "g": ("float", 1.0, "[0, inf)"),
}
_ENV = {**_VACUUM, "beta": ("float", math.inf, "(0, inf]")}  # +inf is the vacuum, at zero temperature
_ENV_TILTED = {
    **_ENV,
    "rapidity": ("float", 0.0, "[-710, 710]"),  # the Lorentz factor cosh(rapidity) stays finite
}
#: with g = 0 every rate is 0, and a detailed-balance ratio or a split between
#: two rate sources has no target
_COUPLED = ("float", 1.0, "(0, inf)")
_SIGMA = ("float", None, "(0, inf)")
_KERNEL = {
    "kind": ("str", "gaussian", ("gaussian", "coherent")),
    "sigma": _SIGMA,
    "r": ("float", 1.0, "[0, inf)"),
    "omega_c": ("float", 1.0, "(0, inf)"),
}
_MASS_UNITS = {
    "kernel.sigma": 5.0,  # a time: 5 / mass_e
    "markov_limit.omega": -3.0,
    "lamb_shift.cutoff": 40.0,
    "kms.omega": 2.0,
}
_SIGMAS = ("list", [2.0, 5.0, 10.0, 20.0], "(0, inf)")
#: the largest x with a finite exp(x): kms weighs each rate by exp(beta * omega)
_EXP_MAX = math.log(sys.float_info.max)
#: the most trajectory-steps, n_traj * t / dt, an unravel config may ask for:
#: 60-100 s at the 1.0e8-1.7e8 steps a second measured on 2 vCPUs
_UNRAVEL_STEPS = 1e10

SCHEMA = {
    "rates": {"env": _ENV_TILTED, "kernel": _KERNEL, "rates": {
        "omega_min": ("float", REQUIRED, "(-inf, inf)"),
        "omega_max": ("float", REQUIRED, "(-inf, inf)"),
        "omega_points": ("int", REQUIRED, "[1, inf)"),
    }},
    "lamb_shift": {"env": _VACUUM, "kernel": {"sigma": _SIGMA}, "lamb_shift": {
        "cutoff": ("float", None, "(0, inf)"),
    }},
    "markov_limit": {"env": _ENV_TILTED, "markov_limit": {
        "omega": ("float", None, "(-inf, inf)"),
        "sigmas": _SIGMAS,
    }},
    "kms": {"env": {**_VACUUM, "g": _COUPLED, "beta": ("float", REQUIRED, "(0, inf)")}, "kms": {
        "omega": ("float", None, "(-inf, inf)"),
        "sigmas": _SIGMAS,
    }},
    "gkls": {"env": _ENV, "gkls": {
        "omega0": ("float", 2.0, "(0, inf)"),
        "t_max": ("float", 5.0, "[0, inf)"),
        "n_times": ("int", 11, "[1, inf)"),
    }},
    "langevin": {"env": _ENV, "langevin": {
        "energy": ("float", 2.0, "(-inf, inf)"),
        "tau_max": ("float", 10.0, "[0, inf)"),
        "n_times": ("int", 21, "[1, inf)"),
        "n0": ("float", 5.0, "[0, inf)"),
    }},
    "unravel": {"unravel": {
        "omega0": ("float", 1.0, "(-inf, inf)"),
        "gamma": ("float", 1.0, "[0, inf)"),
        "t": ("float", 1.0, "(0, inf)"),
        "dt": ("float", 1e-3, "(0, inf)"),
        "n_traj": ("int", 10_000, "[1, inf)"),
        "n_out": ("int", 11, "[2, inf)"),
    }},
    "noise": {"env": _ENV, "kernel": _KERNEL, "noise": {
        "t_span": ("float", 4.0, "(0, inf)"),
        "grid_points": ("int", 32, "[1, inf)"),
        "n_real": ("int", 20_000, "[1, inf)"),
    }},
    "curl": {"env": _ENV, "curl": {
        "n_sites": ("int", 4, "[2, inf)"),
        "tilt": ("float", 0.3, "(-inf, inf)"),
        "spacing": ("float", 1.0, "(0, inf)"),
        "site_energy": ("float", 3.0, "(-inf, inf)"),
        "x": ("int", 1, "[0, inf)"),  # below n_sites, and x != y
        "y": ("int", 2, "[0, inf)"),
        "rate_mode": ("str", "normal_sampled", ("normal_sampled", "normal_independent")),
        "sigmas": ("list", [2.0], "(0, inf)"),
    }},
    "boost": {"env": {**_VACUUM, "g": _COUPLED}, "boost": {
        "grid_size": ("int", 64, "[8, inf)"),  # the coarsest refinement grid, n/4, needs 2 modes
        "theta_max": ("float", 3.0, "(0, inf)"),
        "system_mass": ("float", 3.0, "(0, inf)"),
        "d_rapidity": ("float", 1e-3, "(0, 0.1)"),
    }},
    "cq": {"cq": {
        "d0": ("float", 2.0, "[0, inf)"),
        "d1": ("float", 2.0, "(-inf, inf)"),
        "d2": ("float", 1.0, "[0, inf)"),
        "z_min": ("float", -8.0, "(-inf, inf)"),
        "z_max": ("float", 8.0, "(-inf, inf)"),
        "cells": ("int", 64, "[2, inf)"),
        "t": ("float", 1.0, "(0, inf)"),
        "packet_center": ("float", 0.0, "(-inf, inf)"),
        "packet_width": ("float", 0.5, "(0, inf)"),
        "coherence": ("float", 0.45, "[-0.5, 0.5]"),  # the qubit block stays PSD
    }},
    "tradeoff": {"tradeoff": {
        "d0": ("matrix", REQUIRED, "(-inf, inf)"),
        "d1": ("matrix", REQUIRED, "(-inf, inf)"),
        "d2": ("matrix", REQUIRED, "(-inf, inf)"),
    }},
}

SCENARIOS = tuple(SCHEMA)


def parse_config(
    text: str, scenario: str | None = None, seed_override: int | None = None
) -> ScenarioConfig:
    """Validate a key = value config document and fill declared defaults.

    A scenario accepts only the keys its computation reads (module
    docstring): unknown sections or keys are rejected; missing required keys
    raise a :class:`ConfigError` naming the key.  Every value, given or
    default, must lie in the domain its ``SCHEMA`` entry declares (see
    :func:`_check`): ``[env] beta`` alone is closed at +inf, a tilted rate
    (|``[env] rapidity``| >= ``rates._UNTILTED``) needs the vacuum, ``[curl]
    x`` and ``y`` must be distinct sites below ``n_sites``, kms needs a
    finite exp(beta * omega), a langevin mode at finite beta a positive
    energy, the Lamb-shift cutoff is at least 10 ``mass_e``, the tradeoff
    ``d0`` and ``d2`` are square with ``d1`` as many rows as ``d2`` and
    columns as ``d0``, and an unravel run may take at most
    ``_UNRAVEL_STEPS`` trajectory-steps, with t a multiple of dt
    (``gkls.step_count``) and n_out - 1 dividing the step count.
    Stochastic scenarios must carry a seed (reproducibility contract);
    ``seed_override`` substitutes for a config-file seed, and either must lie
    in [0, 2^64 - 1].
    """
    # ";" separates matrix rows, so only "#" starts a comment after a value
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
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
    seeds = [run.pop("seed")] if "seed" in run else []
    if seed_override is not None:
        seeds.append(seed_override)
    seed = None
    for raw in seeds:  # the config's, then the override: each keys the Philox streams
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"[run] seed: expected an integer, got {raw!r}") from None
        if not 0 <= seed < 2**64:
            raise ConfigError(f"[run] seed must be in [0, 2^64 - 1] (a 64-bit Philox key), got {seed}")
    output = Path(run.pop("output", "."))
    if run:
        raise ConfigError(f"unknown key in [run]: {sorted(run)[0]!r}")
    if scenario in STOCHASTIC and seed is None:
        raise ConfigError(f"scenario {scenario!r} is stochastic: [run] seed is required")

    allowed = SCHEMA[scenario]
    params: dict = {}
    for sec in cp.sections():
        if sec != "run" and sec not in allowed:
            raise ConfigError(f"unknown section [{sec}] for scenario {scenario!r}")
    for sec, keys in allowed.items():
        got = dict(cp[sec]) if sec in cp else {}
        for key in got:
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{sec}]")
        for key, (typ, default, domain) in keys.items():
            name = f"{sec}.{key}"
            if key in got:
                parse, expected = _TYPES[typ]
                try:
                    value = parse(got[key])
                except ValueError:
                    raise ConfigError(f"[{sec}] {key}: expected {expected}, got {got[key]!r}") from None
            elif default is REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{sec}]")
            elif default is None:
                mass, unit = params["env.mass_e"], _MASS_UNITS[name]
                value = unit / mass if sec == "kernel" else unit * mass
            else:
                value = default
            params[name] = _check(sec, key, value, domain)
    if scenario == "curl":
        n, x, y = params["curl.n_sites"], params["curl.x"], params["curl.y"]
        for key, site in (("x", x), ("y", y)):
            if site >= n:
                raise ConfigError(f"[curl] {key} must be < n_sites = {n}, got {site}")
        if x == y:
            raise ConfigError(f"[curl] x and y must be distinct sites, got {x} for both")
    if params.get("env.rapidity") and params["env.beta"] != math.inf:
        from .rates import _UNTILTED
        eta, beta = params["env.rapidity"], params["env.beta"]
        if abs(eta) >= _UNTILTED:
            raise ConfigError(f"[env] rapidity = {eta:g} at a finite [env] beta = {beta:g}: boosted thermal "
                              f"rates are outside the model, so |rapidity| must be < {_UNTILTED:g} or beta inf")
    if scenario == "kms":
        om, beta = params["kms.omega"], params["env.beta"]
        if beta * abs(om) > _EXP_MAX:
            raise ConfigError(f"[kms] omega = {om:g} and [env] beta = {beta:g} make beta * |omega| = "
                              f"{beta * abs(om):.6g}, past {_EXP_MAX:.6g}, where exp(beta * omega) overflows")
    if scenario == "langevin" and params["env.beta"] != math.inf and params["langevin.energy"] <= 0.0:
        raise ConfigError(f"[langevin] energy must be > 0 at a finite [env] beta = {params['env.beta']:g}, "
                          f"got {params['langevin.energy']:g}: the mode's thermal occupation needs E > 0")
    if scenario == "lamb_shift" and params["lamb_shift.cutoff"] < 10.0 * params["env.mass_e"]:
        raise ConfigError(f"[lamb_shift] cutoff must be >= 10 * [env] mass_e = {10.0 * params['env.mass_e']:g} "
                          f"for the tail fit, got {params['lamb_shift.cutoff']:g}")
    if scenario == "tradeoff":
        d0, d1, d2 = (params[f"tradeoff.{key}"] for key in ("d0", "d1", "d2"))
        for key, M in (("d0", d0), ("d2", d2)):
            if M.shape[0] != M.shape[1]:
                raise ConfigError(f"[tradeoff] {key} must be square, got {M.shape[0]} x {M.shape[1]}")
        if d1.shape != (d2.shape[0], d0.shape[0]):
            raise ConfigError(f"[tradeoff] d1 must be {d2.shape[0]} x {d0.shape[0]} (rows as d2, columns "
                              f"as d0), got {d1.shape[0]} x {d1.shape[1]}")
    if scenario == "unravel":
        from .gkls import step_count
        t, dt, n_traj, n_out = (params[f"unravel.{key}"] for key in ("t", "dt", "n_traj", "n_out"))
        work = n_traj * t / dt
        if work > _UNRAVEL_STEPS:
            raise ConfigError(f"[unravel] dt = {dt:g}, t = {t:g} and n_traj = {n_traj} make {work:.3g} "
                              f"trajectory-steps, past the budget of {_UNRAVEL_STEPS:.0e} (1-2 min)")
        try:
            n_steps = step_count(t, dt)
        except ValueError:
            raise ConfigError(f"[unravel] t = {t:g} must be a positive multiple of dt = {dt:g}") from None
        if n_steps % (n_out - 1):
            raise ConfigError(f"[unravel] n_out = {n_out}: n_out - 1 must divide the {n_steps} steps t / dt")
    digest = _sha256(text.encode()).hexdigest()
    return ScenarioConfig(
        scenario=scenario, parameters=params, output_path=output,
        seed=seed, config_hash=digest,
    )


#: the EnvironmentSpec field of each [env] key
_ENV_FIELDS = {"mass_e": "mass_E", "g": "coupling_g", "beta": "beta", "rapidity": "rapidity"}


def _env_from(params):
    """The environment of the [env] keys the scenario declares; an undeclared
    one keeps EnvironmentSpec's default (the vacuum, at rest in the bath)."""
    from .correlators import EnvironmentSpec
    return EnvironmentSpec(**{field: params[f"env.{key}"] for key, field in _ENV_FIELDS.items()
                              if f"env.{key}" in params})


def _kernel_from(params):
    from .kernels import CoherentReadoutKernel, GaussianKernel
    if params.get("kernel.kind") == "coherent":
        return CoherentReadoutKernel(R=params["kernel.r"], omega_C=params["kernel.omega_c"])
    return GaussianKernel(sigma=params["kernel.sigma"])


# ---------------------------------------------------------------------------
# scenario runners: return (outputs, checks, csv file names); each imports
# what it runs, so a CLI process loads only its own scenario's modules
# ---------------------------------------------------------------------------

def _run_rates(cfg):
    from .rates import RateQuery, kappa_markov, kappa_tcl
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
    from .kernels import GaussianKernel
    from .rates import RateQuery, kappa_markov, kappa_tcl
    p = cfg.parameters
    env = _env_from(p)
    om = p["markov_limit.omega"]
    km = kappa_markov(env, om)
    if km == 0.0:
        raise ConfigError(f"[markov_limit] omega = {om} has no Markov rate to converge to")
    rows, rels = [], []
    for s in p["markov_limit.sigmas"]:
        kt = kappa_tcl(RateQuery(omega=om, kernel=GaussianKernel(sigma=s / env.mass_E), env=env))
        rel = abs(kt - km) / km
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
    from .rates import lamb_shift_coefficient
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
    from .kernels import GaussianKernel
    from .rates import RateQuery, kappa_markov_kms, kappa_tcl
    p = cfg.parameters
    env = _env_from(p)
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
    from .gkls import DensityMatrix, build_generator, cp_choi_check, expm, grid_states, qubit_decay_model
    from .rates import kappa_markov
    p = cfg.parameters
    env = _env_from(p)
    om0 = p["gkls.omega0"]
    gdown = kappa_markov(env, -om0)
    gup = kappa_markov(env, +om0)
    model = qubit_decay_model(om0, gdown, gup)
    rho = DensityMatrix.pure([1.0, 0.0])
    times = np.linspace(0.0, p["gkls.t_max"], p["gkls.n_times"])
    gen = build_generator(model)
    h = p["gkls.t_max"] / max(times.size - 1, 1)
    states = grid_states(lambda k: expm(k * h * gen.matrix), rho.matrix, times.size)
    sym = states.conj().transpose(0, 2, 1)  # evolve()'s certificates, on every state
    sym += states
    min_eig = 0.5 * np.linalg.eigvalsh(sym).min()
    if not min_eig >= -1e-8:
        raise ValueError(f"state has negative eigenvalue {min_eig:.3e}")
    trace_ok = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0).max() <= 1e-10
    out = cfg.output_path / "gkls.csv"
    _write_csv(out, ["t", "rho_ee", "re_rho_eg", "im_rho_eg", "rho_gg"],
               zip(times, states[:, 0, 0].real, states[:, 0, 1].real, states[:, 0, 1].imag, states[:, 1, 1].real))
    choi = cp_choi_check(gen, 0.01 / max(gdown + gup, om0))
    checks = {"trace_preserved": bool(trace_ok), "choi_cp": bool(choi.is_cp)}
    outputs = {"gamma_down": gdown, "gamma_up": gup, "min_choi_eigenvalue": choi.min_choi_eigenvalue}
    if env.beta != math.inf and gdown > 0:
        # the steady state spans the generator's kernel: its last right singular vector
        steady = np.linalg.svd(gen.matrix)[2][-1]  # column-stacked rho, up to a factor
        ratio = (steady[0] / steady[3]).real
        outputs["steady_ratio"] = ratio
        checks["steady_detailed_balance"] = bool(abs(ratio - math.exp(-env.beta * om0)) <= 1e-9)
    return outputs, checks, [out.name]


def _run_langevin(cfg):
    from .langevin import ROUNDING, ModeMoments, ModeParams, stationary_fdr_check, write_moment_trajectory_csv
    from .rates import kappa_markov, kappa_markov_kms
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
    defects = write_moment_trajectory_csv(out, params, ModeMoments(mean_a=1.0, occupation_n=p["langevin.n0"]), taus)
    outputs = {"gamma": gamma, "nbar": nbar}
    checks = {"ccr_preserved": bool((defects <= 1e-12).all())}
    if env.beta != math.inf and gamma > 0:
        sym, pred, dev = stationary_fdr_check(params, env.beta)
        outputs.update({"symmetrized_occupation": sym, "coth_prediction": pred})
        checks["fdr"] = bool(dev <= ROUNDING * (nbar + 1.0) * pred)
    return outputs, checks, [out.name]


def _run_unravel(cfg):
    from .gkls import DensityMatrix, qubit_decay_model
    from .trajectories import ensemble_check, unravel_linear, write_ensemble_csv
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
    from .trajectories import _lag_summary, sample_colored_noise
    p = cfg.parameters
    env, kernel = _env_from(p), _kernel_from(p)
    grid = np.linspace(0.0, p["noise.t_span"], p["noise.grid_points"])
    field = sample_colored_noise(env, kernel, grid, p["noise.n_real"], cfg.seed)
    lag_t, c, c_hat, std_error, err, bound = _lag_summary(field)
    out = cfg.output_path / "noise_covariance.csv"
    _write_csv(out, ["lag_t", "re_target", "im_target", "re_sample", "im_sample", "std_error"],
               zip(lag_t, c.real, c.imag, c_hat.real, c_hat.imag, std_error))
    return (
        {"frobenius_rel_error": err, "frobenius_rel_bound": bound, "clipped_mass": field.clipped_mass,
         "root_rank": field.root.shape[1]},
        {"covariance_within_errors": bool(err <= bound)},
        [out.name],
    )


def _run_curl(cfg):
    from .integrability import SliceLattice, functional_curl_residual
    from .kernels import GaussianKernel
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
    from .integrability import MomentumGridModel, boost_interchange_residual
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
    from .hybridcq import CQKernels, HybridState, cq_evolve_grid, tradeoff_check, write_hybrid_csv
    p = cfg.parameters
    kern = CQKernels(d0=p["cq.d0"], d1=p["cq.d1"], d2=p["cq.d2"])
    verdict = tradeoff_check(kern)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    z = np.linspace(p["cq.z_min"], p["cq.z_max"], p["cq.cells"])
    c = p["cq.coherence"]
    st = HybridState.gaussian_packet(z, p["cq.packet_center"], p["cq.packet_width"],
                                     np.array([[0.5, c], [c, 0.5]], dtype=complex))
    tr0 = st.total_trace()
    st, min_eig = cq_evolve_grid(kern, np.zeros((2, 2), dtype=complex), [sz], st, p["cq.t"])
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
    from .hybridcq import CQKernels, tradeoff_check
    p = cfg.parameters
    kern = CQKernels(d0=p["tradeoff.d0"], d1=p["tradeoff.d1"], d2=p["tradeoff.d2"])
    verdict = tradeoff_check(kern)
    out = cfg.output_path / "tradeoff.csv"
    _write_csv(out, ["margin", "range_ok", "verdict"],
               [[verdict.margin, str(verdict.range_ok), verdict.status]])
    return verdict.to_json_dict(), {}, [out.name]


#: each scenario's runner, ``_run_<scenario>``
_RUNNERS = {scenario: globals()[f"_run_{scenario}"] for scenario in SCENARIOS}


def _json_ready(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _json_ready(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_scenario(cfg: ScenarioConfig, quiet: bool = False) -> int:
    """Execute a validated config; write CSV artifacts plus summary.json.

    summary.json is strict JSON: a non-finite output is written as null.
    Its ``wall_time_s`` includes the first import of the modules the
    scenario runs, which each runner imports for itself.
    """
    cfg.output_path.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    outputs, checks, files = _RUNNERS[cfg.scenario](cfg)
    wall = time.perf_counter() - start
    summary = {
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "outputs": _json_ready(outputs),
        "checks": checks,
        "wall_time_s": wall,
        "version": __version__,
        "artifacts": files,
    }
    with open(cfg.output_path / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=float, allow_nan=False)
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
    parser.add_argument("--traceback", action="store_true", help="print the traceback of an error")
    args = parser.parse_args(argv)
    cfg = None
    try:
        text = Path(args.config).read_text()
        cfg = parse_config(text, scenario=args.scenario, seed_override=args.seed)
        if args.output is not None:
            cfg.output_path = Path(args.output)
        return run_scenario(cfg, quiet=args.quiet)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # a run reads no file once its config is parsed, so an OSError past
        # that is a failed write of an artifact or of summary.json
        stage = "parse" if cfg is None else "write" if isinstance(exc, OSError) else "compute"
        print(f"error [{args.scenario}] {stage}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if args.traceback:
            import traceback
            traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
