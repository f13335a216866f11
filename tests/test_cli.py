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

    def test_noise_never_forms_samples(self, tmp_path, monkeypatch):
        from relclock import trajectories

        def refuse(field):
            raise AssertionError("the noise scenario read NoiseField.samples")

        monkeypatch.setattr(trajectories.NoiseField, "samples", property(refuse))
        cfg = parse_config(SMALL_CONFIGS["noise"])
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        assert (tmp_path / "noise_covariance.csv").exists()

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
        # one quadrature per nonzero tau: the check reads the defects the
        # CSV writer computed
        from relclock import langevin

        calls = []
        quad = langevin.integrate_adaptive

        def spy(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(langevin, "integrate_adaptive", spy)
        cfg = parse_config("[run]\nscenario = langevin\n")
        cfg.output_path = tmp_path
        assert run_scenario(cfg, quiet=True) == 0
        assert len(calls) == 20
        assert json.loads((tmp_path / "summary.json").read_text())["checks"]["ccr_preserved"]

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

    def test_zero_dt_named(self, tmp_path, capsys):
        config = tmp_path / "cfg.ini"
        config.write_text("[run]\nscenario = unravel\nseed = 1\n\n[unravel]\ndt = 0\n")
        rc = main(["unravel", "--config", str(config), "--output", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "dt must be positive" in err and "division" not in err

    @pytest.mark.parametrize("scenario, setting, named, numpy_message", [
        ("unravel", "n_traj = 0", "n_traj", "negative dimensions"),
        ("unravel", "n_traj = -3", "n_traj", "negative dimensions"),
        ("unravel", "n_out = 0", "n_out must be at least 2", "must divide"),
        ("unravel", "n_out = 1", "n_out must be at least 2", "must divide"),
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

#: runs one scenario as the CLI does, then prints the scipy modules it loaded
SCIPY_PROBE = (
    "import json, sys\n"
    "from relclock.cli import main\n"
    "rc = main([sys.argv[1], '--config', sys.argv[2], '--output', sys.argv[3], '--quiet'])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    "sys.exit(rc)\n"
)

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

    @pytest.mark.parametrize("scenario, text", SMALL_CONFIGS.items(), ids=list(SMALL_CONFIGS))
    def test_scenario_scipy_modules(self, tmp_path, scenario, text):
        # quadrature, special functions, expm and PCHIP are all numpy
        config = tmp_path / "cfg.ini"
        config.write_text(text)
        done = _fresh_python("-c", SCIPY_PROBE, scenario, str(config), str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert loaded == []

    def test_runs_with_scipy_refused(self, tmp_path):
        # an interpreter whose imports of scipy fail still runs the expm
        # scenarios and builds a tabulated kernel
        for scenario in ("gkls", "unravel", "cq"):
            config = tmp_path / f"{scenario}.ini"
            config.write_text(SMALL_CONFIGS[scenario])
            done = _fresh_python("-c", NO_SCIPY + SCIPY_PROBE, scenario, str(config),
                                 str(tmp_path / scenario))
            assert done.returncode == 0, done.stderr
        done = _fresh_python("-c", NO_SCIPY + (
            "try:\n"
            "    import scipy.interpolate\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit('scipy was not refused')\n"
            "import numpy as np\n"
            "from relclock.kernels import TabulatedKernel\n"
            "s = np.linspace(-4, 4, 41)\n"
            "k = TabulatedKernel(np.column_stack([s, np.exp(-s * s / 2)]))\n"
            "print(k.evaluate(0.0), k.evaluate(1.3))\n"))
        assert done.returncode == 0, done.stderr
        w0, w1 = map(float, done.stdout.split())
        assert w0 == 1.0 and w1 == pytest.approx(math.exp(-1.3**2 / 2), rel=1e-3)

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
        # passes the cap
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
