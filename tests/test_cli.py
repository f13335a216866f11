import configparser
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relclock
from relclock.cli import (
    SCENARIOS, SCHEMA, STOCHASTIC, ConfigError, _env_from, _json_ready, main, parse_config, run_scenario,
)

SRC = Path(relclock.__file__).resolve().parents[1]

MINIMAL_RATES = """
[run]
scenario = rates

[env]
mass_e = 1.0
g = 1.0

[kernel]
sigma = 5.0

[rates]
omega_min = -4.0
omega_max = 1.0
omega_points = 6
"""

#: the keys a config must set, at values inside their domains
REQUIRED_KEYS = {
    "rates": {"rates": {"omega_min": "-4", "omega_max": "1", "omega_points": "6"}},
    "kms": {"env": {"beta": "1"}},
    "tradeoff": {"tradeoff": {"d0": "1", "d1": "1", "d2": "1"}},
}


def _config_with(scenario, section=None, key=None, raw=None):
    """The least config of ``scenario``, with ``[section] key = raw`` set."""
    sections = {sec: dict(keys) for sec, keys in REQUIRED_KEYS.get(scenario, {}).items()}
    if section is not None:
        sections.setdefault(section, {})[key] = raw
    if (scenario, key) == ("curl", "n_sites"):  # two distinct sites below n_sites = 2
        sections[section].update(x="0", y="1")
    text = f"[run]\nscenario = {scenario}\nseed = 1\n"
    for sec, keys in sections.items():
        text += f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    return text


class TestParseConfig:
    def test_minimal_rates(self):
        cfg = parse_config(MINIMAL_RATES)
        assert cfg.scenario == "rates"
        assert cfg.parameters["rates.omega_points"] == 6
        assert cfg.parameters["env.beta"] == math.inf
        assert cfg.parameters["kernel.sigma"] == 5.0

    def test_default_sigma_scales_with_mass(self):
        text = MINIMAL_RATES.replace("mass_e = 1.0", "mass_e = 2.0").replace(
            "sigma = 5.0", ""
        )
        cfg = parse_config(text)
        assert cfg.parameters["kernel.sigma"] == pytest.approx(2.5)

    def test_negative_sigma_rejected(self):
        text = MINIMAL_RATES.replace("sigma = 5.0", "sigma = -1.0")
        with pytest.raises(ConfigError, match="sigma must be > 0"):
            parse_config(text)

    def test_missing_required_key_named(self):
        text = MINIMAL_RATES.replace("omega_points = 6", "")
        with pytest.raises(ConfigError, match="omega_points"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = MINIMAL_RATES + "\nwibble = 3\n"
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(text)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("[run]\nscenario = frobnicate\n")

    def test_stochastic_requires_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("[run]\nscenario = unravel\n")

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="declares scenario"):
            parse_config(MINIMAL_RATES, scenario="kms")

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_kernel_section_only_where_read(self, scenario):
        # [kernel] is accepted only by the scenarios that build their kernel
        # from it; markov_limit, kms and curl take sigmas from their own
        # sections, and the rest use no clock kernel; lamb_shift's kernel is
        # Gaussian, so its [kernel] has no kind
        text = SMALL_CONFIGS[scenario].replace("[kernel]\nsigma = 5.0\n", "")
        text += "\n[kernel]\nkind = coherent\nsigma = 0.3\n"
        if scenario in ("rates", "noise"):
            assert parse_config(text).parameters["kernel.sigma"] == 0.3
        elif scenario == "lamb_shift":
            with pytest.raises(ConfigError, match=r"unknown key 'kind' in \[kernel\]"):
                parse_config(text)
            assert parse_config(text.replace("kind = coherent\n", "")).parameters["kernel.sigma"] == 0.3
        else:
            with pytest.raises(ConfigError, match=r"unknown section \[kernel\]"):
                parse_config(text)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_key_refused_outside_its_domain(self, scenario):
        # every entry declares its domain; the defaults and each closed edge
        # parse; a value just past each finite bound, nan, and an infinity
        # the domain does not contain are refused by [section] key
        parse_config(_config_with(scenario))
        # [run] seed keys the Philox streams, so it is one 64-bit word,
        # whether the config or --seed gives it
        for seed in (0, 2**64 - 1):
            assert parse_config(_config_with(scenario).replace("seed = 1", f"seed = {seed}")).seed == seed
            assert parse_config(_config_with(scenario), seed_override=seed).seed == seed
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=re.escape("[run] seed")):
                parse_config(_config_with(scenario).replace("seed = 1", f"seed = {seed}"))
            with pytest.raises(ConfigError, match=re.escape("[run] seed")):
                parse_config(_config_with(scenario), seed_override=seed)
        for sec, keys in SCHEMA[scenario].items():
            for key, (typ, _, domain) in keys.items():
                named = re.escape(f"[{sec}] {key}")

                def refused(raw):
                    with pytest.raises(ConfigError, match=named):
                        parse_config(_config_with(scenario, sec, key, raw))

                if typ == "str":
                    assert domain and all(isinstance(word, str) for word in domain)
                    for word in domain:
                        parse_config(_config_with(scenario, sec, key, word))
                    refused("nonsense")
                    continue
                interval = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])", domain)
                assert interval, f"[{sec}] {key} declares no interval"
                left, lo, hi, right = interval.groups()

                def raw(x):
                    return str(int(x)) if typ == "int" and math.isfinite(x) else repr(float(x))

                for bound, closed, away in ((float(lo), left == "[", -math.inf),
                                            (float(hi), right == "]", math.inf)):
                    if not closed:
                        refused(raw(bound))
                        continue
                    parse_config(_config_with(scenario, sec, key, raw(bound)))
                    if math.isfinite(bound):
                        past = bound + math.copysign(1.0, away) if typ == "int" else np.nextafter(bound, away)
                        refused(raw(past))
                refused("nan")

    def test_semicolon_separates_matrix_rows(self):
        # ";" is the row separator, so only "#" starts a comment after a
        # value; a ";" comment on a line of its own still reads as one
        cfg = parse_config("[run]\nscenario = tradeoff\n; full-line note\n[tradeoff]\n"
                           "d0 = 2 0 ; 0 3  # note\nd1 = 1 1\nd2 = 1\n")
        assert cfg.parameters["tradeoff.d0"].tolist() == [[2.0, 0.0], [0.0, 3.0]]
        assert cfg.parameters["tradeoff.d1"].tolist() == [[1.0, 1.0]]

    @pytest.mark.parametrize("d0, d1, d2, named", [
        ("1 2", "1 1", "1", "[tradeoff] d0 must be square, got 1 x 2"),
        ("1", "1; 1", "1 0", "[tradeoff] d2 must be square, got 1 x 2"),
        ("1 0; 0 1", "1", "1", "[tradeoff] d1 must be 1 x 2 (rows as d2, columns as d0), got 1 x 1"),
        ("1", "1; 1", "1", "[tradeoff] d1 must be 1 x 1 (rows as d2, columns as d0), got 2 x 1"),
    ])
    def test_tradeoff_shapes_refused_at_parse(self, tmp_path, capsys, d0, d1, d2, named):
        # a mis-shaped matrix is refused by key before any output is made,
        # not in CQKernels at the compute stage
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = tradeoff\n[tradeoff]\nd0 = {d0}\nd1 = {d1}\nd2 = {d2}\n")
        out = tmp_path / "out"
        assert main(["tradeoff", "--config", str(config), "--output", str(out), "--quiet"]) == 1
        assert f"error [tradeoff] parse: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_hash_stable(self):
        a = parse_config(MINIMAL_RATES)
        b = parse_config(MINIMAL_RATES)
        assert a.config_hash == b.config_hash


class TestRunScenario:
    def test_rates_artifacts(self, tmp_path):
        cfg = parse_config(MINIMAL_RATES)
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("scenario", "config_hash", "seed", "outputs", "checks",
                    "wall_time_s", "version"):
            assert key in summary
        assert summary["checks"]["nonnegative"] is True
        header = (tmp_path / "rates.csv").read_text().splitlines()[0]
        assert header == "omega,sigma,beta,rapidity,kappa_tcl,kappa_markov,delta_kappa"

    def test_markov_limit_converges(self, tmp_path):
        cfg = parse_config("[run]\nscenario = markov_limit\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["converged"] is True

    def test_tradeoff_boundary(self, tmp_path):
        cfg = parse_config(
            "[run]\nscenario = tradeoff\n\n[tradeoff]\nd0 = 2\nd1 = 2\nd2 = 1\n"
        )
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["outputs"]["verdict"] == "satisfied"
        assert abs(summary["outputs"]["margin"]) <= 1e-12

    def test_flat_curl_null(self, tmp_path):
        cfg = parse_config("[run]\nscenario = curl\n\n[curl]\ntilt = 0.0\nsigmas = 2\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["null_residual"] is True
        assert summary["outputs"]["residual"] <= 1e-12

    def test_noise_never_forms_samples(self, tmp_path, monkeypatch):
        from relclock import trajectories

        def refuse(field):
            raise AssertionError("the noise scenario read NoiseField.samples")

        monkeypatch.setattr(trajectories.NoiseField, "samples", property(refuse))
        cfg = parse_config(SMALL_CONFIGS["noise"])
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        assert (tmp_path / "noise_covariance.csv").exists()

    def test_noise_summary_rank_and_clipped_mass(self, tmp_path):
        # the 8-point default grid has full rank: nothing is dropped, and the
        # clipped mass is written as 0.0, not -0.0
        cfg = parse_config(SMALL_CONFIGS["noise"])
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        text = (tmp_path / "summary.json").read_text()
        assert '"clipped_mass": 0.0,' in text
        assert json.loads(text)["outputs"]["root_rank"] == 8

    @pytest.mark.parametrize("g, n_points", [(1, 8), (1, 256), (0, 8)])
    def test_noise_csv_one_row_per_lag(self, tmp_path, g, n_points):
        # the Toeplitz covariance is written as its n lags, not as n^2 pairs;
        # a zero coupling gives zero target, sample and std_error columns
        cfg = parse_config(f"[run]\nscenario = noise\nseed = 2\n\n[env]\ng = {g}\n\n"
                           f"[noise]\ngrid_points = {n_points}\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        header, *lines = (tmp_path / "noise_covariance.csv").read_text().splitlines()
        assert header == "lag_t,re_target,im_target,re_sample,im_sample,std_error"
        rows = np.array([[float(c) for c in line.split(",")] for line in lines])
        assert rows.shape == (n_points, 6)
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 4.0, n_points))
        assert rows[:, 1:].any() == bool(g)

    def test_csv_determinism(self, tmp_path):
        text = "[run]\nscenario = unravel\nseed = 9\n\n[unravel]\nn_traj = 200\nt = 0.2\ndt = 0.001\nn_out = 5\n"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = parse_config(text)
            cfg.output_path = out
            run_scenario(cfg, quiet=True)
        assert (out_a / "unravel.csv").read_bytes() == (out_b / "unravel.csv").read_bytes()
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa.pop("wall_time_s"), sb.pop("wall_time_s")
        assert sa == sb

    def test_langevin_computes_each_ccr_defect_once(self, tmp_path, monkeypatch):
        # the ccr_defect column is |ccr - 1| of the written moments, from one
        # moment flow and no quadrature, and ccr_preserved reads that column
        from relclock import langevin, rates, specfun

        def no_quadrature(*args, **kwargs):
            raise AssertionError("langevin must not integrate")

        assert not hasattr(langevin, "integrate_adaptive")
        for module in (specfun, rates):  # rates binds its own name at import
            monkeypatch.setattr(module, "integrate_adaptive", no_quadrature)
        flows = []
        flow = langevin.mode_evolve_moments
        monkeypatch.setattr(langevin, "mode_evolve_moments", lambda *a: flows.append(a) or flow(*a))
        cfg = parse_config("[run]\nscenario = langevin\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        assert len(flows) == 1
        rows = np.loadtxt(tmp_path / "langevin.csv", delimiter=",", skiprows=1)
        moments = flow(*flows[0])
        assert np.array_equal(rows[:, 6], np.abs(moments.ccr - 1.0))
        assert json.loads((tmp_path / "summary.json").read_text())["checks"]["ccr_preserved"]

    def test_langevin_ccr_check_fails_a_wrong_noise_term(self, tmp_path, monkeypatch):
        # a flow whose noise term has its sign flipped, ccr = ccr0 d^2 - (1 - d^2),
        # no longer keeps [a, a+] = 1, and the check that reads the CSV says so
        from dataclasses import replace

        from relclock import langevin

        flow = langevin.mode_evolve_moments

        def flipped(p, m0, tau):
            d2 = np.exp(-p.gamma * np.asarray(tau))
            return replace(flow(p, m0, tau), ccr=m0.ccr * d2 - (1.0 - d2))

        monkeypatch.setattr(langevin, "mode_evolve_moments", flipped)
        cfg = parse_config("[run]\nscenario = langevin\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 2
        assert not json.loads((tmp_path / "summary.json").read_text())["checks"]["ccr_preserved"]
        defects = np.loadtxt(tmp_path / "langevin.csv", delimiter=",", skiprows=1)[:, 6]
        assert defects[0] == 0.0 and defects[1:].min() > 1e-3

    @pytest.mark.parametrize("sections", [
        "[langevin]\nenergy = 1e6", "[env]\ng = 1e6", "[langevin]\ntau_max = 1e6",
    ])
    def test_langevin_extreme_inputs_keep_the_ccr(self, tmp_path, sections):
        # a quadrature of the noise term misses its boundary layer at these
        # rates; the moment flow keeps ccr = 1
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = langevin\n\n{sections}\n")
        out = tmp_path / "out"
        assert main(["langevin", "--config", str(config), "--output", str(out), "--quiet"]) == 0
        assert json.loads((out / "summary.json").read_text())["checks"]["ccr_preserved"]

    @pytest.mark.parametrize("energy", ["-2", "0", "-1e-300"])
    def test_langevin_thermal_mode_needs_positive_energy(self, tmp_path, capsys, energy):
        # at finite beta the mode's thermal occupation n_B(E) needs E > 0:
        # refused at parse by key, not by the library in compute, and no
        # occupation is clamped to 0; the vacuum keeps running such a mode
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = langevin\n\n[env]\nbeta = 1\n[langevin]\nenergy = {energy}\n")
        out = tmp_path / "out"
        assert main(["langevin", "--config", str(config), "--output", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "parse: [langevin] energy must be > 0" in err and "[env] beta = 1" in err
        assert not out.exists()
        config.write_text(f"[run]\nscenario = langevin\n\n[langevin]\nenergy = {energy}\n")
        assert main(["langevin", "--config", str(config), "--output", str(out), "--quiet"]) == 0
        assert json.loads((out / "summary.json").read_text())["outputs"] == {"gamma": 0.0, "nbar": 0.0}

    def test_gkls_steady_state_at_high_temperature(self, tmp_path):
        # at beta = 1e-6 the two rates nearly cancel: a long-time evolve loses
        # the unit trace to rounding, the generator's kernel does not
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = gkls\n\n[env]\nbeta = 1e-6\n")
        out = tmp_path / "out"
        assert main(["gkls", "--config", str(config), "--output", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["steady_detailed_balance"]
        assert summary["outputs"]["steady_ratio"] == pytest.approx(math.exp(-2e-6), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_gkls_kernel_steady_state_matches_evolve(self, tmp_path, beta):
        from relclock.gkls import DensityMatrix, evolve, qubit_decay_model
        from relclock.rates import kappa_markov

        cfg = parse_config(f"[run]\nscenario = gkls\n\n[env]\nbeta = {beta}\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        ratio = json.loads((tmp_path / "summary.json").read_text())["outputs"]["steady_ratio"]
        env = _env_from(cfg.parameters)
        gdown, gup = kappa_markov(env, -2.0), kappa_markov(env, 2.0)
        final = evolve(qubit_decay_model(2.0, gdown, gup), DensityMatrix.pure([1.0, 0.0]),
                       50.0 / (gdown - gup)).matrix
        assert ratio == pytest.approx(final[0, 0].real / final[1, 1].real, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("text, rc, expected", [
        ("[run]\nscenario = markov_limit\n\n[markov_limit]\nsigmas = 2\n", 2,
         {"observed_order": None}),
        ("[run]\nscenario = markov_limit\n\n[markov_limit]\nomega = 0.5\n", 1,
         "[markov_limit] omega"),
        ("[run]\nscenario = noise\nseed = 1\n\n[env]\ng = 0\n\n[noise]\ngrid_points = 8\nn_real = 500\n",
         0, {"frobenius_rel_error": 0.0}),
        ("[run]\nscenario = kms\n\n[env]\nbeta = 1\ng = 0\n", 1, "[env] g"),
    ], ids=["one-sigma", "no-markov-rate", "zero-coupling", "kms-zero-coupling"])
    def test_summary_is_strict_json(self, tmp_path, capsys, text, rc, expected):
        # a non-finite output is written as null; a zero coupling gives a zero
        # target covariance, which the sample meets exactly; a Markov limit
        # with no rate to converge to, and a detailed-balance check with no
        # rate at all, are refused by key, before any artifact
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        scenario = text.partition("scenario = ")[2].split()[0]
        assert main([scenario, "--config", str(config), "--output", str(tmp_path), "--quiet"]) == rc
        if rc == 1:
            assert expected in capsys.readouterr().err
            assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini"]
            return

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        outputs = json.loads((tmp_path / "summary.json").read_text(), parse_constant=refuse)["outputs"]
        assert {key: outputs[key] for key in expected} == expected

    def test_json_ready_nulls_every_non_finite(self):
        value = {"a": [1.0, math.inf, {"b": -math.inf, "c": [math.nan, 0]}],
                 "d": np.float64(-np.inf), "e": "inf", "f": None}
        assert _json_ready(value) == {"a": [1.0, None, {"b": None, "c": [None, 0]}],
                                      "d": None, "e": "inf", "f": None}

    @pytest.mark.parametrize("scenario, rc", [
        ("rates", 0), ("lamb_shift", 0), ("gkls", 0), ("langevin", 0), ("noise", 0),
        ("curl", 0), ("kms", 1), ("boost", 1),
    ])
    def test_zero_coupling_refused_only_without_a_target(self, tmp_path, capsys, scenario, rc):
        # with g = 0 every rate is 0: the detailed-balance ratio and the
        # boost split between two rate sources can then never pass
        cp = configparser.ConfigParser()
        cp.read_string(SMALL_CONFIGS[scenario])
        cp.read_dict({"env": {"g": "0"}})
        config = tmp_path / "cfg.ini"
        with open(config, "w") as fh:
            cp.write(fh)
        out = tmp_path / "out"
        assert main([scenario, "--config", str(config), "--output", str(out), "--quiet"]) == rc
        if rc == 1:
            assert "[env] g" in capsys.readouterr().err
            assert not out.exists()

    def test_gkls_trace_drift_fails_its_check(self, tmp_path):
        # at g = 1e6 (rates about 3e11) the states' traces drift past 1e-10
        # by rounding: trace_preserved reads false and the run exits 2
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = gkls\n\n[env]\ng = 1e6\n")
        out = tmp_path / "out"
        assert main(["gkls", "--config", str(config), "--output", str(out), "--quiet"]) == 2
        checks = json.loads((out / "summary.json").read_text())["checks"]
        assert checks == {"trace_preserved": False, "choi_cp": True}

    def test_gkls_negative_state_is_a_compute_error(self, tmp_path, capsys, monkeypatch):
        # every state is held to evolve()'s eigenvalue floor of -1e-8: one
        # unit-trace state below it, the last, stops the run before its CSV
        from relclock import gkls

        grid_states = gkls.grid_states

        def dented(power, rho0, n):
            states = grid_states(power, rho0, n)
            states[-1] = np.diag([1.0 + 2e-8, -2e-8])
            return states

        monkeypatch.setattr(gkls, "grid_states", dented)
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = gkls\n")
        out = tmp_path / "out"
        assert main(["gkls", "--config", str(config), "--output", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "error [gkls] compute: state has negative eigenvalue -2.000e-08\n"
        assert not (out / "gkls.csv").exists()

    def test_markov_limit_thermal_absorption_converges(self, tmp_path):
        # a positive omega has a thermal Markov rate: refused only on a zero rate
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = markov_limit\n\n[env]\nbeta = 1\n\n"
                          "[markov_limit]\nomega = 3\n")
        assert main(["markov_limit", "--config", str(config), "--output", str(tmp_path),
                     "--quiet"]) == 0

    @pytest.mark.parametrize("kernels", ["d0 = 100", "d0 = 20\nd1 = 20\nd2 = 10"])
    def test_cq_generator_bound_sets_the_step(self, tmp_path, kernels):
        # a strong Lindblad or backaction sector shortens the step; it is not
        # a step-size error
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = cq\n\n[cq]\n{kernels}\n")
        assert main(["cq", "--config", str(config), "--output", str(tmp_path), "--quiet"]) == 0
        checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
        assert checks == {"trace_conserved": True, "blocks_stay_positive": True}

    def test_cq_builds_one_generator(self, tmp_path, monkeypatch):
        from relclock import hybridcq

        calls = {"generator_matrix": 0, "expm": 0}
        for name in calls:
            original = getattr(hybridcq, name)

            def spy(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(hybridcq, name, spy)
        cfg = parse_config("[run]\nscenario = cq\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        assert calls == {"generator_matrix": 1, "expm": 1}

    @pytest.mark.parametrize("setting, named", [
        ("coherence = 0.6", "[cq] coherence"),
        ("coherence = -0.6", "[cq] coherence"),
        ("coherence = nan", "[cq] coherence"),
        ("packet_width = 0", "[cq] packet_width"),
        ("packet_width = -0.5", "[cq] packet_width"),
    ])
    def test_cq_initial_state_refused(self, tmp_path, capsys, setting, named):
        # a negative block or a packet of no width is not a hybrid state
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = cq\n\n[cq]\n{setting}\n")
        out = tmp_path / "out"
        assert main(["cq", "--config", str(config), "--output", str(out), "--quiet"]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, sections, named", [
        ("gkls", "[gkls]\nomega0 = 0", "[gkls] omega0"),
        ("gkls", "[gkls]\nomega0 = -1", "[gkls] omega0"),
        ("boost", "[boost]\nsystem_mass = 0", "[boost] system_mass"),
        ("boost", "[boost]\nsystem_mass = -1", "[boost] system_mass"),
        ("boost", "[boost]\ntheta_max = 0", "[boost] theta_max"),
        ("boost", "[boost]\ntheta_max = -1", "[boost] theta_max"),
        ("curl", "[curl]\nx = 2\ny = 2", "[curl] x"),
        ("curl", "[curl]\nn_sites = 4\nx = 4", "[curl] x"),
        ("gkls", "[env]\ng = -1", "[env] g"),
    ])
    def test_out_of_domain_named(self, tmp_path, capsys, scenario, sections, named):
        # refused by key when the config is parsed, not by a division by
        # zero, a failed check or a library message that names no key
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = {scenario}\n\n{sections}\n")
        out = tmp_path / "out"
        assert main([scenario, "--config", str(config), "--output", str(out), "--quiet"]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sections, value", [
        ("[env]\nbeta = 1\n[kms]\nomega = 1e6", "1e+06"),
        ("[env]\nbeta = 1e6", "2e+06"),
        ("[env]\nbeta = 1\nmass_e = 1e6", "2e+06"),
    ])
    def test_kms_exp_overflow_refused(self, tmp_path, capsys, sections, value):
        # exp(beta * omega) weighs each rate and overflows past log(max float):
        # refused at parse, naming both keys and the product
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = kms\n\n{sections}\n")
        out = tmp_path / "out"
        assert main(["kms", "--config", str(config), "--output", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "[kms] omega" in err and "[env] beta" in err and f"= {value}," in err
        assert not out.exists()

    def test_kms_exp_bound_is_the_largest_finite_exp(self, tmp_path):
        # beta * |omega| at the bound runs, and passes; one step past is refused
        edge = math.log(sys.float_info.max)
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = kms\n[env]\nbeta = 1\n[kms]\nomega = {edge!r}\n")
        assert main(["kms", "--config", str(config), "--output", str(tmp_path / "out"), "--quiet"]) == 0
        parse_config(f"[run]\nscenario = kms\n[env]\nbeta = 1\n[kms]\nomega = {-edge!r}\n")
        with pytest.raises(ConfigError, match=r"\[kms\] omega = .* and \[env\] beta"):
            parse_config(f"[run]\nscenario = kms\n[env]\nbeta = 1\n[kms]\nomega = {float(np.nextafter(edge, 1e3))!r}\n")

    def test_kms_requires_thermal_env(self):
        with pytest.raises(ConfigError, match=r"'beta' in \[env\]"):
            parse_config("[run]\nscenario = kms\n")


class TestMain:
    def test_cli_roundtrip(self, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text(MINIMAL_RATES)
        rc = main(["rates", "--config", str(config), "--output", str(tmp_path / "out"), "--quiet"])
        assert rc == 0
        assert (tmp_path / "out" / "rates.csv").exists()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = rates\n")
        rc = main(["rates", "--config", str(config), "--quiet"])
        assert rc == 1
        assert "omega_min" in capsys.readouterr().err

    def test_empty_error_names_its_type(self, tmp_path, capsys, monkeypatch):
        # an exception with no message still says what went wrong
        from relclock import cli

        def exhausted(cfg):
            raise MemoryError()

        monkeypatch.setitem(cli._RUNNERS, "unravel", exhausted)
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = unravel\nseed = 1\n")
        rc = main(["unravel", "--config", str(config), "--output", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == "error [unravel] compute: MemoryError\n"

    def test_parse_and_write_failures_named(self, tmp_path, capsys):
        # a failure names the stage it stopped in; an output path that is a
        # file fails to be made a directory, before any artifact
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = rates\n")
        assert main(["rates", "--config", str(config), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error [rates] parse: missing required key")
        config.write_text(MINIMAL_RATES)
        blocked = tmp_path / "file"
        blocked.write_text("")
        assert main(["rates", "--config", str(config), "--output", str(blocked), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error [rates] write: ")

    def test_traceback_on_request(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = rates\n")
        main(["rates", "--config", str(config), "--quiet"])
        assert "Traceback" not in capsys.readouterr().err
        assert main(["rates", "--config", str(config), "--quiet", "--traceback"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [rates] parse: ")
        assert "Traceback (most recent call last)" in err and "ConfigError" in err

    def test_unravel_work_budget(self):
        # n_traj * t / dt trajectory-steps past the budget are refused at
        # parse, naming the keys and the count, instead of running for days
        # (or, at dt = 1e-12, ending in a MemoryError)
        with pytest.raises(ConfigError, match=r"\[unravel\] dt = 1e-12, t = 1 and n_traj = 10000 "
                                              r"make 1e\+16 trajectory-steps"):
            parse_config("[run]\nscenario = unravel\nseed = 1\n\n[unravel]\ndt = 1e-12\n")
        parse_config("[run]\nscenario = unravel\nseed = 1\n\n[unravel]\ndt = 1e-6\n")  # at the budget

    @pytest.mark.parametrize("scenario, refused, named, boundary", [
        ("lamb_shift", "[lamb_shift]\ncutoff = 9.99", r"\[lamb_shift\] cutoff must be >= 10", "[lamb_shift]\ncutoff = 10"),
        ("lamb_shift", "[env]\nmass_e = 2\n[lamb_shift]\ncutoff = 19.9", r"\[lamb_shift\] cutoff must be >= 10",
         "[env]\nmass_e = 2\n[lamb_shift]\ncutoff = 20"),
        ("unravel", "[unravel]\nt = 0.0015", r"\[unravel\] t = 0.0015 must be a positive multiple of dt",
         "[unravel]\nt = 0.002\nn_out = 3"),
        ("unravel", "[unravel]\ndt = 0.3", r"\[unravel\] t = 1 must be a positive multiple of dt",
         "[unravel]\ndt = 0.5\nn_out = 2"),
        ("unravel", "[unravel]\nn_out = 4", r"\[unravel\] n_out = 4: n_out - 1 must divide the 1000 steps",
         "[unravel]\nn_out = 1001"),
        ("noise", "[kernel]\nkind = coherent\nr = -1", r"\[kernel\] r must be >= 0",
         "[kernel]\nkind = coherent\nr = 0"),
        ("noise", "[kernel]\nkind = coherent\nomega_c = 0", r"\[kernel\] omega_c must be > 0",
         "[kernel]\nkind = coherent\nomega_c = 1e-12"),
    ])
    def test_library_exits_refused_at_parse(self, scenario, refused, named, boundary):
        # a Lamb-shift cutoff below 10 mass_e, an unravel t that is not a
        # multiple of dt, an n_out - 1 that does not divide t / dt, and a
        # coherent kernel's negative r or non-positive omega_c are refused
        # by [section] key, not by the library after parse; the boundary
        # values still parse
        head = f"[run]\nscenario = {scenario}\nseed = 1\n"
        with pytest.raises(ConfigError, match=named):
            parse_config(f"{head}{refused}\n")
        parse_config(f"{head}{boundary}\n")

    @pytest.mark.parametrize("scenario, head", [
        ("rates", "[rates]\nomega_min = -4\nomega_max = 1\nomega_points = 3\n"),
        ("markov_limit", ""),
    ])
    def test_boosted_thermal_refused_at_parse(self, tmp_path, capsys, scenario, head):
        # a tilted clock in a thermal bath is outside the model: refused by
        # both keys before any output is made, not by kappa_tcl in compute;
        # a rapidity below rates._UNTILTED, or the vacuum, still parses
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = {scenario}\n{head}[env]\nbeta = 1\nrapidity = -1e-14\n")
        out = tmp_path / "out"
        assert main([scenario, "--config", str(config), "--output", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{scenario}] parse: [env] rapidity = -1e-14 at a finite [env] beta = 1:")
        assert not out.exists()
        for env in ("beta = 1\nrapidity = 9.9e-15", "rapidity = 710"):
            parse_config(f"[run]\nscenario = {scenario}\n{head}[env]\n{env}\n")

    def test_noise_at_the_grid_cap(self, tmp_path, capsys):
        # 4096 points run in a fresh process in about 2.4 s and 46 MB on 2
        # vCPUs (the 256-point eigh root took 38 MB); 4097 are one clear error
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = noise\nseed = 1\n\n[noise]\ngrid_points = 4096\n")
        # VmHWM is this process image's own peak: ru_maxrss would count the
        # test process it was forked from
        probe = ("import sys, time\nfrom relclock.cli import main\nt0 = time.perf_counter()\n"
                 "rc = main(['noise', '--config', sys.argv[1], '--output', sys.argv[2], '--quiet'])\n"
                 "hwm = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')]\n"
                 "print(rc, time.perf_counter() - t0, *hwm)\n")
        done = _fresh_python("-c", probe, str(config), str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        rc, elapsed, rss_kb = done.stdout.split()
        assert rc == "0" and float(elapsed) < 30.0 and int(rss_kb) < 64 * 1024
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["checks"] == {"covariance_within_errors": True}
        config.write_text("[run]\nscenario = noise\nseed = 1\n\n[noise]\ngrid_points = 4097\n")
        assert main(["noise", "--config", str(config), "--output", str(tmp_path / "cap"), "--quiet"]) == 1
        assert capsys.readouterr().err == ("error [noise] compute: noise grid of 4097 points "
                                           "is past the cap of 4096\n")

    def test_langevin_at_high_temperature(self, tmp_path, monkeypatch):
        # at beta = 1e-12 nbar = k+ / (k- - k+) cancels with condition number
        # nbar + 1 = 5e11, and the restated bounds hold it (it exited 1 at
        # 1e-9); at beta = 1 a flow that relaxes to nbar + 1, the emission
        # weight 1 + n_B taken with the wrong sign of its 1, fails the fdr check
        from relclock import langevin

        cfg = parse_config("[run]\nscenario = langevin\n\n[env]\nbeta = 1e-12\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"] == {"ccr_preserved": True, "fdr": True}
        assert summary["outputs"]["nbar"] == pytest.approx(5e11, rel=1e-5)
        flow = langevin.mode_evolve_moments

        def wrong_sign(p, m0, tau):
            m = flow(p, m0, tau)
            return dataclasses.replace(m, occupation_n=m.occupation_n + 1.0)

        monkeypatch.setattr(langevin, "mode_evolve_moments", wrong_sign)
        cfg = parse_config("[run]\nscenario = langevin\n\n[env]\nbeta = 1\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 2
        assert not json.loads((tmp_path / "summary.json").read_text())["checks"]["fdr"]

    def test_noise_at_tiny_coupling(self, tmp_path):
        # the noise target is g^2 times its unit-coupling value, so a tiny g
        # scales the covariance and its rank tolerance alike
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = noise\nseed = 1\n\n[env]\ng = 1e-12\n")
        assert main(["noise", "--config", str(config), "--output", str(tmp_path / "out"), "--quiet"]) == 0

    def test_zero_dt_named(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = unravel\nseed = 1\n\n[unravel]\ndt = 0\n")
        rc = main(["unravel", "--config", str(config), "--output", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "[unravel] dt" in err and "division" not in err

    @pytest.mark.parametrize("scenario, setting, named, numpy_message", [
        ("unravel", "n_traj = 0", "n_traj", "negative dimensions"),
        ("unravel", "n_traj = -3", "n_traj", "negative dimensions"),
        ("unravel", "n_out = 0", "[unravel] n_out", "must divide"),
        ("unravel", "n_out = 1", "[unravel] n_out", "must divide"),
        ("noise", "grid_points = 0", "grid", "zero-size array"),
        ("cq", "t = 0", "[cq] t", "division by zero"),
        ("cq", "z_min = 2\nz_max = 2", "z_grid", "division by zero"),
    ])
    def test_empty_sample_named(self, tmp_path, capsys, scenario, setting, named, numpy_message):
        # an empty ensemble, grid, duration or grid width is refused by name,
        # before any artifact
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = {scenario}\nseed = 1\n\n[{scenario}]\n{setting}\n")
        out = tmp_path / "out"
        rc = main([scenario, "--config", str(config), "--output", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err and numpy_message not in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("scenario, section, key, extra", [
        ("rates", "rates", "omega_points", "omega_min = -4\nomega_max = 1\n"),
        ("gkls", "gkls", "n_times", ""),
        ("langevin", "langevin", "n_times", ""),
        ("noise", "noise", "grid_points", ""),
        ("cq", "cq", "cells", ""),
        ("boost", "boost", "grid_size", ""),
    ])
    def test_grid_size_named(self, tmp_path, capsys, scenario, section, key, extra, value):
        # refused when the config is parsed, before numpy's linspace sees it
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = {scenario}\nseed = 1\n\n[{section}]\n{extra}{key} = {value}\n")
        out = tmp_path / "out"
        rc = main([scenario, "--config", str(config), "--output", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and "Number of samples" not in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("setting, key", [
        ("t_span = 0", "t_span"),
        ("t_span = inf", "t_span"),
        ("t_span = nan", "t_span"),
        ("t_span = -4", "t_span"),
        ("n_real = 0", "n_real"),
    ])
    def test_noise_inputs_named(self, tmp_path, capsys, setting, key):
        # a grid of no width, an infinite or negative span and an empty
        # ensemble are refused by key when the config is parsed, before the
        # sampler or numpy's linspace sees them
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = noise\nseed = 1\n\n[noise]\ngrid_points = 8\n{setting}\n")
        out = tmp_path / "out"
        assert main(["noise", "--config", str(config), "--output", str(out), "--quiet"]) == 1
        assert f"[noise] {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, sections, named", [
        ("unravel", "[unravel]\nt = inf", "[unravel] t"),
        ("unravel", "[unravel]\ndt = nan", "[unravel] dt"),
        ("unravel", "[unravel]\nomega0 = nan", "[unravel] omega0"),
        ("rates", "[rates]\nomega_min = nan\nomega_max = 1\nomega_points = 3", "[rates] omega_min"),
        ("rates", "[rates]\nomega_min = -1\nomega_max = 1\nomega_points = 3\n[env]\nmass_e = inf",
         "[env] mass_e"),
        ("rates", "[rates]\nomega_min = -1\nomega_max = 1\nomega_points = 3\n[env]\nbeta = -inf",
         "[env] beta"),
        ("rates", "[rates]\nomega_min = -1\nomega_max = 1\nomega_points = 3\n[env]\nbeta = nan",
         "[env] beta"),
        ("kms", "[env]\nbeta = 1\n[kms]\nsigmas = 2 nan", "[kms] sigmas"),
        ("tradeoff", "[tradeoff]\nd0 = 1\nd1 = inf\nd2 = 1", "[tradeoff] d1"),
    ])
    def test_non_finite_number_named(self, tmp_path, capsys, scenario, sections, named):
        # one rule for every float, list and matrix key: a nan or an infinity
        # is refused by key when the config is parsed, before it fails deep
        # in the compute under a message that names no key (an integer
        # conversion, expm, an SVD, a quadrature range or the kernel width)
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = {scenario}\nseed = 1\n\n{sections}\n")
        out = tmp_path / "out"
        assert main([scenario, "--config", str(config), "--output", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{named} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "+inf", "Infinity"])
    def test_infinite_beta_is_the_vacuum(self, value):
        # [env] beta is the one number that may be +inf: zero temperature
        cfg = parse_config(MINIMAL_RATES.replace("g = 1.0", f"g = 1.0\nbeta = {value}"))
        assert cfg.parameters["env.beta"] == math.inf

    @pytest.mark.parametrize("scenario", ["markov_limit", "kms", "curl"])
    def test_empty_sigmas_named(self, tmp_path, capsys, scenario):
        # an empty list would index past its end, pass vacuously, or leave a
        # header-only CSV, so it is refused when the config is parsed
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = {scenario}\n\n[env]\nbeta = 1\n\n[{scenario}]\nsigmas =\n")
        out = tmp_path / "out"
        rc = main([scenario, "--config", str(config), "--output", str(out), "--quiet"])
        assert rc == 1
        assert f"[{scenario}] sigmas" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_one_cq_cell_refused(self):
        with pytest.raises(ConfigError, match=r"\[cq\] cells must be >= 2"):
            parse_config("[run]\nscenario = cq\n\n[cq]\ncells = 1\n")

    def test_seed_override(self, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text(
            "[run]\nscenario = noise\n\n[noise]\nn_real = 500\ngrid_points = 8\n"
        )
        out = tmp_path / "out"
        rc = main(["noise", "--config", str(config), "--seed", "3",
                   "--output", str(out), "--quiet"])
        assert rc in (0, 2)  # statistics check may fail at tiny n_real
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 3

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed", str(2**64)], []],
                             ids=["flag_minus_one", "flag_two_to_64", "config_minus_one"])
    def test_seed_out_of_domain_named(self, tmp_path, capsys, flag):
        # refused at parse by [run] seed, from --seed or the config, not in
        # compute by the uint64 key
        config = tmp_path / "cfg.ini"
        config.write_text(f"[run]\nscenario = noise\nseed = {1 if flag else -1}\n\n"
                          "[noise]\nn_real = 5\ngrid_points = 8\n")
        out = tmp_path / "out"
        assert main(["noise", "--config", str(config), *flag, "--output", str(out), "--quiet"]) == 1
        assert "error [noise] parse: [run] seed must be in [0, 2^64 - 1]" in capsys.readouterr().err
        assert not out.exists()


#: every scenario on a config that runs in well under a second
SMALL_CONFIGS = {
    "rates": MINIMAL_RATES,
    "lamb_shift": "[run]\nscenario = lamb_shift\n",
    "markov_limit": "[run]\nscenario = markov_limit\n",
    "kms": "[run]\nscenario = kms\n\n[env]\nbeta = 1\n",
    "gkls": "[run]\nscenario = gkls\n",
    "langevin": "[run]\nscenario = langevin\n",
    "unravel": "[run]\nscenario = unravel\nseed = 2\n\n[unravel]\nn_traj = 200\nt = 0.2\n",
    "noise": "[run]\nscenario = noise\nseed = 2\n\n[noise]\ngrid_points = 8\n",
    "curl": "[run]\nscenario = curl\n",
    "boost": "[run]\nscenario = boost\n",
    "cq": "[run]\nscenario = cq\n\n[cq]\ncells = 32\n",
    "tradeoff": "[run]\nscenario = tradeoff\n\n[tradeoff]\nd0 = 1\nd1 = 1\nd2 = 1\n",
}

#: runs one scenario as the CLI does, then prints what it loaded as JSON: the
#: modules of one package, or whether it loaded OpenSSL's binding and
#: numpy.random
_PROBE = (
    "import json, sys\n"
    "from relclock.cli import main\n"
    "rc = main([sys.argv[1], '--config', sys.argv[2], '--output', sys.argv[3], '--quiet'])\n"
    "print(json.dumps({loaded}))\n"
    "sys.exit(rc)\n"
)
SCIPY_PROBE = _PROBE.format(loaded="sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')")
RELCLOCK_PROBE = _PROBE.format(loaded="sorted(m for m in sys.modules if m.split('.')[0] == 'relclock')")
OPENSSL_PROBE = _PROBE.format(loaded="['_hashlib' in sys.modules, 'numpy.random' in sys.modules]")

#: the relclock modules a scenario's process loads besides the package, cli
#: and _csv
_RATE_MODULES = {"specfun", "kernels", "correlators", "rates"}
SCENARIO_MODULES = {
    "rates": _RATE_MODULES,
    "lamb_shift": _RATE_MODULES,
    "markov_limit": _RATE_MODULES,
    "kms": _RATE_MODULES,
    "gkls": _RATE_MODULES | {"gkls"},
    "langevin": _RATE_MODULES | {"langevin"},
    "unravel": {"_accel", "correlators", "gkls", "kernels", "specfun", "trajectories"},
    "noise": {"_accel", "correlators", "gkls", "kernels", "specfun", "trajectories"},
    "curl": {"correlators", "gkls", "integrability", "kernels", "rates", "specfun"},
    "boost": {"correlators", "gkls", "integrability", "kernels", "rates", "specfun"},
    "cq": {"_accel", "gkls", "hybridcq", "kernels"},
    "tradeoff": {"_accel", "gkls", "hybridcq", "kernels"},
}

#: a meta-path finder, put first, that makes every import of scipy fail
NO_SCIPY = (
    "import sys\n"
    "class _NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError('scipy refused: ' + name)\n"
    "sys.meta_path.insert(0, _NoScipy())\n"
)


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports relclock from SRC."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


class TestFreshProcess:
    def test_import_loads_no_scipy(self):
        # the test session has scipy loaded already, so only a new
        # interpreter can see what importing the package pulls in
        done = _fresh_python("-c", "import sys, relclock, relclock.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_import_loads_no_physics_module(self):
        done = _fresh_python("-c", "import sys, relclock.cli; "
                             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'relclock'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(["relclock", "relclock._csv", "relclock.cli"])

    def test_import_loads_no_openssl(self):
        done = _fresh_python("-c", "import sys, relclock.cli; print('_hashlib' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("scenario, text", SMALL_CONFIGS.items(), ids=list(SMALL_CONFIGS))
    def test_scenario_loads_openssl_only_with_numpy_random(self, tmp_path, scenario, text):
        # no scenario, the stochastic ones included, loads OpenSSL's binding
        # or numpy.random (which would bring it, through secrets and hmac):
        # the config hash is CPython's built-in SHA-256, and unravel and
        # noise make their own Philox streams
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        done = _fresh_python("-c", OPENSSL_PROBE, scenario, str(config), str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == [False, False]

    @pytest.mark.parametrize("text", SMALL_CONFIGS.values(), ids=list(SMALL_CONFIGS))
    def test_config_hash_is_sha256(self, text):
        assert parse_config(text).config_hash == hashlib.sha256(text.encode()).hexdigest()

    def test_config_hash_without_builtin_sha256(self):
        # with neither built-in SHA-256 module, the hash falls back to
        # hashlib and keeps its digest
        done = _fresh_python("-c", "import sys\n"
                             "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                             "from relclock.cli import parse_config\n"
                             "print(parse_config(sys.argv[1]).config_hash, '_hashlib' in sys.modules)\n",
                             MINIMAL_RATES)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [hashlib.sha256(MINIMAL_RATES.encode()).hexdigest(), "True"]

    @pytest.mark.parametrize("scenario, text", SMALL_CONFIGS.items(), ids=list(SMALL_CONFIGS))
    def test_scenario_loads_only_its_modules(self, tmp_path, scenario, text):
        # a process compiles only the modules its scenario runs
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        done = _fresh_python("-c", RELCLOCK_PROBE, scenario, str(config), str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout.strip().splitlines()[-1]))
        expected = {"relclock", "relclock.cli", "relclock._csv"}
        assert loaded == expected | {f"relclock.{m}" for m in SCENARIO_MODULES[scenario]}

    @pytest.mark.parametrize("scenario, text", SMALL_CONFIGS.items(), ids=list(SMALL_CONFIGS))
    def test_scenario_scipy_modules(self, tmp_path, scenario, text):
        # quadrature, special functions and expm are all numpy
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        done = _fresh_python("-c", SCIPY_PROBE, scenario, str(config), str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert loaded == []

    def test_runs_with_scipy_refused(self, tmp_path):
        # an interpreter whose imports of scipy fail still runs the expm
        # scenarios
        for scenario in ("gkls", "unravel", "cq"):
            config = tmp_path / f"{scenario}.ini"
            config.write_text(SMALL_CONFIGS[scenario])
            done = _fresh_python("-c", NO_SCIPY + SCIPY_PROBE, scenario, str(config),
                                 str(tmp_path / scenario))
            assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("scenario, csv_name, text", [
        ("tradeoff", "tradeoff.csv", "[run]\nscenario = tradeoff\n\n[tradeoff]\nd0 = 1\nd1 = 1\nd2 = 1\n"),
        ("gkls", "gkls.csv", "[run]\nscenario = gkls\n"),
        ("lamb_shift", "lamb_shift.csv", "[run]\nscenario = lamb_shift\n"),
        ("noise", "noise_covariance.csv",
         "[run]\nscenario = noise\nseed = 4\n\n[noise]\nn_real = 500\ngrid_points = 8\n"),
    ])
    def test_csv_bytes_match_in_process_run(self, tmp_path, scenario, csv_name, text):
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        fresh, warm = tmp_path / "fresh", tmp_path / "warm"
        done = _fresh_python("-m", "relclock.cli", scenario, "--config", str(config),
                             "--output", str(fresh), "--quiet")
        rc = main([scenario, "--config", str(config), "--output", str(warm), "--quiet"])
        assert done.returncode == rc, done.stderr
        assert rc == 0 or scenario == "noise"  # noise statistics may fail at tiny n_real
        assert (fresh / csv_name).read_bytes() == (warm / csv_name).read_bytes()

    def test_benchmark_tracer_installs(self, tmp_path):
        # the traced benchmark pass wraps relclock functions by name; install()
        # raises AttributeError when one of those names is deleted or renamed
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = rates\n\n[kernel]\nkind = coherent\nr = 3\n\n"
                          "[rates]\nomega_min = -4\nomega_max = 1\nomega_points = 8\n")
        trace = tmp_path / "trace.json"
        done = _fresh_python(str(SRC.parent / "relbench" / "tracer.py"),
                             "rates", str(config), str(tmp_path / "out"), str(trace))
        assert done.returncode == 0, done.stderr
        names = [span[0] for span in json.loads(trace.read_text())["spans"]]
        assert names.count("rates.query_init") == 8
        assert names.count("kernels.gram_check") == 1

    @pytest.mark.parametrize("scenario, text, n_quad", [
        ("rates", "[run]\nscenario = rates\n\n[env]\nbeta = 1\n\n[kernel]\nsigma = 1\n\n"
                  "[rates]\nomega_min = -4\nomega_max = 4\nomega_points = 8\n", 16),
        ("lamb_shift", "[run]\nscenario = lamb_shift\n", 81),
    ])
    def test_benchmark_tracer_sees_every_quadrature(self, tmp_path, scenario, text, n_quad):
        # the per-layer specfun metrics wrap integrate_adaptive by name, so
        # every rate and Lamb-shift quadrature must go through it: two per
        # thermal frequency, nine cutoffs of nine integrals for the Lamb
        # shift (each fit's last integral is its raw value, and the cutoff's
        # fit serves both the summary and the last CSV row)
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        trace = tmp_path / "trace.json"
        done = _fresh_python(str(SRC.parent / "relbench" / "tracer.py"),
                             scenario, str(config), str(tmp_path / "out"), str(trace))
        assert done.returncode == 0, done.stderr
        record = json.loads(trace.read_text())
        assert [span[0] for span in record["spans"]].count("specfun.quad") == n_quad
        evals = record["counts"]["specfun.quad_evals"]
        assert len(evals) == n_quad and min(evals) > 0

    def test_benchmark_tracer_sees_noise_blocks(self, tmp_path):
        # the tracer counts the stepper's work and field buffer from its 4th
        # argument: 1100 trajectories x 300 steps take two chunks and two
        # blocks (240 + 60 steps), every step is counted once and no block
        # passes the cap; it reads the ESS from the final states
        from relclock import trajectories

        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = unravel\nseed = 3\n\n"
                          "[unravel]\nn_traj = 1100\nt = 0.3\ndt = 0.001\n")
        trace = tmp_path / "trace.json"
        done = _fresh_python(str(SRC.parent / "relbench" / "tracer.py"),
                             "unravel", str(config), str(tmp_path / "out"), str(trace))
        assert done.returncode == 0, done.stderr
        record = json.loads(trace.read_text())
        counts = record["counts"]
        assert sum(counts["accel.chunk_steps"]) == 1100 * 300
        assert len(counts["accel.chunk_steps"]) == 4
        assert max(counts["trajectories.noise_buffer_mb"]) <= trajectories._BLOCK_FIELDS / 2**20
        assert [span[0] for span in record["spans"]].count("accel.step_chunk") == 4
        # the effective sample size of the final norms, as the library's
        # final states give it in process
        from relclock.gkls import DensityMatrix, qubit_decay_model

        ens = trajectories.unravel_linear(qubit_decay_model(1.0, 1.0), DensityMatrix.pure([1, 0]),
                                          0.3, 0.001, 1100, seed=3)
        w = np.sum(np.abs(ens.states[:, -1, :]) ** 2, axis=1)
        [ess_frac] = counts["trajectories.ess_frac"]
        assert 0.0 < ess_frac <= 1.0
        assert ess_frac == pytest.approx(w.sum() ** 2 / np.sum(w * w) / 1100, rel=1e-12)


class TestWriteCsv:
    def test_cells(self, tmp_path):
        from relclock._csv import write_csv

        values = [0.1, -1e308, 1e308, 5e-324, 2.2250738585072014e-308 / 3, 1 / 3, -0.0]
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [values, [3, np.int64(7), math.inf, -math.inf, math.nan],
                                     ["verbatim text", "1.0", np.float64(0.1), 2.5]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert [float(c) for c in lines[1].split(",")] == values
        assert [str(float(c)) for c in lines[1].split(",")] == [str(v) for v in values]
        assert lines[2] == "3,7,inf,-inf,nan"
        assert lines[3] == "verbatim text,1.0,0.10000000000000001,2.5"


#: each scenario at its defaults: the keys a config must set, and seed 1 for
#: the stochastic two
DEFAULT_CONFIGS = {
    scenario: _config_with(scenario) if scenario in STOCHASTIC else _config_with(scenario).replace("seed = 1\n", "")
    for scenario in SCENARIOS
}

#: runs every scenario of sys.argv[2:] at its default config in one process
#: under sys.argv[1], then prints the sha256 of each artifact, and of
#: summary.json without its wall_time_s line, as JSON
_BYTES_PROBE = (
    "import hashlib, json, re, sys\n"
    "from pathlib import Path\n"
    "from relclock.cli import main\n"
    "root, digests = Path(sys.argv[1]), {}\n"
    "for scenario in sys.argv[2:]:\n"
    "    out = root / scenario\n"
    "    assert main([scenario, '--config', str(root / (scenario + '.ini')), '--output', str(out),\n"
    "                 '--quiet']) == 0, scenario\n"
    "    for path in sorted(out.iterdir()):\n"
    "        data = path.read_bytes()\n"
    "        if path.name == 'summary.json':\n"
    "            data = re.sub(rb'\\n *\"wall_time_s\": [^\\n]*', b'', data)\n"
    "        digests[f'{scenario}/{path.name}'] = hashlib.sha256(data).hexdigest()\n"
    "print(json.dumps(digests))\n"
)

#: sha256 of every default artifact, written with numpy 2.4.6 on x86-64;
#: a change that moves one of these bytes says why in CHANGES.md
DEFAULT_DIGESTS = {
    "boost/boost.csv": "5573c7436f3d295dd0945812d218655576b9d62efed9d42fbc0859b8ffc8c01c",
    "boost/summary.json": "f35ffad197257c0e318bde57185362d4df46597fd0d3b79ed1e3a207a0e73016",
    "cq/cq_final.csv": "fdec6a3ebfb0352e7352c3e2220adc6e19ed64f58059c4c080bb2a91dac1ab43",
    "cq/summary.json": "ffcfe66c8c4a0dcfeb8b753cde6f275707b6576e0d499abe871e8903a81dcaee",
    "curl/curl.csv": "98a0f0768c8ebab6af48ae44f203d4a8268db3864956883b8aac994a98603ac8",
    "curl/summary.json": "48eba7b04d0457147331779186762574a05558a8848a0351ab1b0392283a0bf7",
    "gkls/gkls.csv": "fc86ba1e9d343eebcebea1813a543e1d891dc8d1249fe0e10c4584aef21a06d2",
    "gkls/summary.json": "bb1fe486f365440508b713c8943e06d01f5a31db134669c317fbf73690539c47",
    "kms/kms.csv": "28f7d7b9af7b08591f6b4b4c1f79bc88c500d3ff53d0fad26424810125015ccc",
    "kms/summary.json": "2a82286c7ed780697897800aff3fedefceb0c981c96719c6b8a854b341b7d7b5",
    "lamb_shift/lamb_shift.csv": "16ec30fced74769578f9786099538e1fefb0561b390c2b1ea85aea8c5444b720",
    "lamb_shift/summary.json": "7f8b7eaa5c9a3f061a31338b1c85cbe3e6ec766df44a3c34c432ff0028488d85",
    "langevin/langevin.csv": "ec361217187955ef7af81c0a6dd55fea81d035c8c3d8bec8c24c307ba6abd313",
    "langevin/summary.json": "2154d2a079ade998ea30588e00e2867f4ea8618ee15d19b5675c588e70cd5944",
    "markov_limit/markov_limit.csv": "31938311810ff2ccb24725cf1217df674a2630c4e90332f8a28845e6c3177b25",
    "markov_limit/summary.json": "07a4a3150e00157fdc81442b1f900b92c1d017c2dfbe6cb9e8bf4086ce30e866",
    "noise/noise_covariance.csv": "87856837a8ff53327a0df46ea357d71dd3dae479cff26b56982a7e837847dc08",
    "noise/summary.json": "66c087a26e516bdfbe09810902abb6b032bfbb44940477bae8ae2cee47d04dea",
    "rates/rates.csv": "4ad457fdae19b33c6a05f4bf04063983268400dfddb9bb76e43b2bd45ff45f35",
    "rates/summary.json": "b5d5662d13eedaa896bf6aecc3d77d9d8b2d31e7025a80737d3339195473b92f",
    "tradeoff/summary.json": "0cbc2897234736674a4b5cd612540f9f124d2c323e88a6a495cc585d5ebbb073",
    "tradeoff/tradeoff.csv": "6d5057b24b2a05a550ee86b9a738bdf7fe387a11b6ec2a7bbee57a086523909b",
    "unravel/summary.json": "fb053fcd3dbd36bc2e502455cefbadb91e27f6d89b824136d908891b008e03c8",
    "unravel/unravel.csv": "e0b1515ba31bac7330e8aa217a69e3fcfb2123b7f1a96aa9af17e0c657cab298",
}


class TestByteContract:
    def test_default_artifacts_keep_their_bytes(self, tmp_path, monkeypatch):
        for scenario, text in DEFAULT_CONFIGS.items():
            (tmp_path / f"{scenario}.ini").write_text(text)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the BLAS threads the table was written with
        done = _fresh_python("-c", _BYTES_PROBE, str(tmp_path), *SCENARIOS)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == DEFAULT_DIGESTS

    def test_bytes_independent_of_blas_threads(self, tmp_path, monkeypatch):
        # noise at 256 points and unravel at its defaults write the same bytes
        # at one and at two BLAS threads: every sum that reaches an artifact
        # runs in a fixed order (the dense eigh root did not, and moved the
        # 256-point noise bytes with the thread count)
        (tmp_path / "noise.ini").write_text(_config_with("noise", "noise", "grid_points", "256"))
        (tmp_path / "unravel.ini").write_text(DEFAULT_CONFIGS["unravel"])
        digests = []
        for threads in ("1", "2"):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
            done = _fresh_python("-c", _BYTES_PROBE, str(tmp_path), "noise", "unravel")
            assert done.returncode == 0, done.stderr
            digests.append(json.loads(done.stdout))
        assert len(digests[0]) == 4 and digests[0] == digests[1]


#: each scenario on a config small enough to run in process in a few ms
READ_BASE = {
    "rates": {"rates": {"omega_min": "-4", "omega_max": "1", "omega_points": "3"}},
    "lamb_shift": {},
    "markov_limit": {"markov_limit": {"sigmas": "2 5"}},
    "kms": {"env": {"beta": "1"}, "kms": {"sigmas": "2 5"}},
    "gkls": {},
    "langevin": {},
    "unravel": {"unravel": {"n_traj": "50", "t": "0.1", "dt": "0.01", "n_out": "3"}},
    "noise": {"noise": {"grid_points": "4", "n_real": "20"}},
    "curl": {},
    "boost": {"boost": {"grid_size": "16"}},
    "cq": {"cq": {"cells": "8", "t": "0.2"}},
    "tradeoff": {"tradeoff": {"d0": "1", "d1": "1", "d2": "1"}},
}
#: a second value of each key, inside its domain and the cross-key rules
#: on READ_BASE, and different from the base value
SECOND_VALUES = {
    "env": {"mass_e": "2", "g": "2", "beta": "2", "rapidity": "1"},
    "kernel": {"kind": "coherent", "sigma": "3", "r": "3", "omega_c": "2"},
    "rates": {"omega_min": "-3", "omega_max": "2", "omega_points": "4"},
    "markov_limit": {"omega": "-2", "sigmas": "3 6"},
    "lamb_shift": {"cutoff": "30"},
    "kms": {"omega": "1", "sigmas": "3 6"},
    "gkls": {"omega0": "1", "t_max": "2", "n_times": "5"},
    "langevin": {"energy": "1", "tau_max": "5", "n_times": "5", "n0": "1"},
    "unravel": {"omega0": "2", "gamma": "0.5", "t": "0.2", "dt": "0.005", "n_traj": "60", "n_out": "6"},
    "noise": {"t_span": "2", "grid_points": "5", "n_real": "30"},
    "curl": {"n_sites": "3", "tilt": "0.5", "spacing": "2", "site_energy": "2", "x": "0", "y": "3",
             "rate_mode": "normal_independent", "sigmas": "3"},
    "boost": {"grid_size": "32", "theta_max": "2", "system_mass": "2", "d_rapidity": "0.01"},
    "cq": {"d0": "3", "d1": "1", "d2": "2", "z_min": "-6", "z_max": "6", "cells": "10", "t": "0.1",
           "packet_center": "0.5", "packet_width": "0.8", "coherence": "0.3"},
    "tradeoff": {"d0": "2", "d1": "0.5", "d2": "3"},
}
#: keys read only under another setting: the coherent kernel's own two
READ_UNDER = {("kernel", "r"): ("kind", "coherent"), ("kernel", "omega_c"): ("kind", "coherent")}
#: keys that no computation of the scenario reads, so it refuses them
UNREAD_KEYS = [
    *((scenario, "env", "rapidity") for scenario in ("lamb_shift", "kms", "gkls", "langevin", "noise",
                                                      "curl", "boost")),
    ("lamb_shift", "env", "beta"), ("boost", "env", "beta"),
    ("lamb_shift", "kernel", "kind"), ("lamb_shift", "kernel", "r"), ("lamb_shift", "kernel", "omega_c"),
]


def _csv_bytes(scenario, sections, out):
    """The CSV bytes of an in-process run of ``scenario`` on ``sections``, or
    None if it raised."""
    text = f"[run]\nscenario = {scenario}\nseed = 1\n"
    for sec, keys in sections.items():
        text += f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    try:
        cfg = parse_config(text)
        cfg.output_path = out
        run_scenario(cfg, quiet=True)
    except Exception:  # noqa: BLE001 - a value that only fails is not read to effect
        return None
    return [path.read_bytes() for path in sorted(out.glob("*.csv"))]


def test_every_key_is_read(tmp_path):
    # every key a scenario declares changes its CSV bytes at a second value
    # (each config runs in a few ms), and a key that no computation of the
    # scenario reads is refused at parse, not ignored or left to fail in
    # compute
    unread = []
    for scenario in SCENARIOS:
        for sec, keys in SCHEMA[scenario].items():
            for key in keys:
                base = {name: dict(values) for name, values in READ_BASE[scenario].items()}
                if (sec, key) in READ_UNDER:
                    under, word = READ_UNDER[sec, key]
                    base.setdefault(sec, {})[under] = word
                changed = {name: dict(values) for name, values in base.items()}
                changed.setdefault(sec, {})[key] = SECOND_VALUES[sec][key]
                assert changed[sec][key] != base.get(sec, {}).get(key)
                name = f"{scenario} [{sec}] {key}"
                before = _csv_bytes(scenario, base, tmp_path / f"{name} base")
                after = _csv_bytes(scenario, changed, tmp_path / name)
                if before is None or after is None or after == before:
                    unread.append(name)
    assert not unread, f"read to no effect: {', '.join(unread)}"
    for scenario, sec, key in UNREAD_KEYS:
        with pytest.raises(ConfigError, match=re.escape(f"unknown key {key!r} in [{sec}]")):
            parse_config(f"[run]\nscenario = {scenario}\nseed = 1\n[{sec}]\n{key} = 1\n")
