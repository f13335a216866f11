import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relclock
from relclock.cli import ConfigError, main, parse_config, run_scenario

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

    def test_kms_requires_thermal_env(self, tmp_path):
        cfg = parse_config("[run]\nscenario = kms\n")
        cfg.output_path = tmp_path
        with pytest.raises(ConfigError):
            run_scenario(cfg, quiet=True)


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

    @pytest.mark.parametrize("scenario, csv_name, text", [
        ("tradeoff", "tradeoff.csv", "[run]\nscenario = tradeoff\n\n[tradeoff]\nd0 = 1\nd1 = 1\nd2 = 1\n"),
        ("gkls", "gkls.csv", "[run]\nscenario = gkls\n"),
        ("lamb_shift", "lamb_shift.csv", "[run]\nscenario = lamb_shift\n"),
        ("noise", "noise_covariance.csv",
         "[run]\nscenario = noise\nseed = 4\n\n[noise]\nn_real = 500\ngrid_points = 8\n"),
    ])
    def test_csv_bytes_match_in_process_run(self, tmp_path, scenario, csv_name, text):
        # a new process imports scipy at the call sites; the in-process run
        # below finds scipy loaded before relclock calls it
        import scipy.integrate, scipy.linalg, scipy.special  # noqa: F401, E401

        config = tmp_path / "cfg.ini"
        config.write_text(text)
        fresh, warm = tmp_path / "fresh", tmp_path / "warm"
        done = _fresh_python("-m", "relclock.cli", scenario, "--config", str(config),
                             "--output", str(fresh), "--quiet")
        rc = main([scenario, "--config", str(config), "--output", str(warm), "--quiet"])
        assert done.returncode == rc, done.stderr
        assert rc == 0 or scenario == "noise"  # noise statistics may fail at tiny n_real
        assert (fresh / csv_name).read_bytes() == (warm / csv_name).read_bytes()
