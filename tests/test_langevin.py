import csv
import math

import numpy as np
import pytest

from relclock.correlators import EnvironmentSpec
from relclock.langevin import (
    ROUNDING,
    ModeMoments,
    ModeParams,
    mode_evolve_moments,
    stationary_fdr_check,
    write_moment_trajectory_csv,
)
from relclock.rates import kappa_markov_kms
from relclock.specfun import bose_occupation


class TestMoments:
    def test_occupation_relaxation(self):
        p = ModeParams(energy_E=2.0, gamma=1.0, nbar=0.0)
        m = mode_evolve_moments(p, ModeMoments(occupation_n=5.0), math.log(5.0))
        assert m.occupation_n == pytest.approx(1.0, rel=1e-12)

    def test_identity_at_zero_time(self):
        p = ModeParams(energy_E=1.0, gamma=0.3, nbar=0.2)
        m0 = ModeMoments(mean_a=0.4 + 0.1j, occupation_n=2.0, anomalous_m=0.3j)
        m1 = mode_evolve_moments(p, m0, 0.0)
        assert m1 == m0

    def test_free_evolution(self):
        p = ModeParams(energy_E=2.0, gamma=0.0, nbar=0.0)
        m0 = ModeMoments(mean_a=1.0, occupation_n=3.0)
        m1 = mode_evolve_moments(p, m0, 5.0)
        assert abs(m1.mean_a) == pytest.approx(1.0, rel=1e-12)
        assert m1.occupation_n == pytest.approx(3.0, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            mode_evolve_moments(ModeParams(1.0, 1.0), ModeMoments(), -1.0)

    def test_semigroup(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = ModeParams(
                energy_E=rng.uniform(0.5, 4.0),
                gamma=rng.uniform(0.0, 2.0),
                nbar=rng.uniform(0.0, 3.0),
            )
            m0 = ModeMoments(
                mean_a=complex(rng.normal(), rng.normal()),
                occupation_n=rng.uniform(0, 5),
                anomalous_m=0.1 * complex(rng.normal(), rng.normal()),
            )
            t1, t2 = rng.uniform(0, 3, size=2)
            once = mode_evolve_moments(p, m0, t1 + t2)
            twice = mode_evolve_moments(p, mode_evolve_moments(p, m0, t1), t2)
            assert abs(once.mean_a - twice.mean_a) <= 1e-12
            assert abs(once.occupation_n - twice.occupation_n) <= 1e-12
            assert abs(once.anomalous_m - twice.anomalous_m) <= 1e-12

    def test_ccr_stays_unit(self):
        p = ModeParams(energy_E=1.0, gamma=0.7, nbar=1.0)
        m = mode_evolve_moments(p, ModeMoments(occupation_n=2.0), 3.7)
        assert m.ccr == pytest.approx(1.0, abs=1e-12)


class TestCCRDefect:
    # the defect is |ccr - 1| of the moments the flow writes, the damped
    # initial commutator plus the noise term
    @staticmethod
    def defect(p, tau):
        return abs(mode_evolve_moments(p, ModeMoments(), tau).ccr - 1.0)

    def test_examples(self):
        assert self.defect(ModeParams(2.0, 1.0), 10.0) <= 1e-12
        assert self.defect(ModeParams(2.0, 1.0), 0.0) == 0.0
        assert self.defect(ModeParams(2.0, 0.0), 5.0) == 0.0

    def test_many_draws(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            gamma = rng.uniform(0.05, 3.0)
            tau = rng.uniform(0.0, 10.0) / gamma
            assert self.defect(ModeParams(1.0, gamma), tau) <= 1e-12

    def test_array_of_times_matches_one_call_per_time(self):
        # bit for bit, so a CSV row is the moments of its own time
        rng = np.random.default_rng(27)
        for _ in range(20):
            p = ModeParams(rng.uniform(-4.0, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0))
            m0 = ModeMoments(mean_a=complex(*rng.normal(size=2)), occupation_n=3.0,
                             anomalous_m=0.5j, ccr=rng.uniform(0.5, 1.5))
            taus = np.sort(rng.uniform(0.0, 20.0, 257))
            grid = mode_evolve_moments(p, m0, taus)
            for field in ("mean_a", "occupation_n", "anomalous_m", "ccr"):
                each = [getattr(mode_evolve_moments(p, m0, float(t)), field) for t in taus]
                assert getattr(grid, field).tobytes() == np.array(each).tobytes()


class TestFDR:
    def test_coth_value(self):
        nbar = bose_occupation(2.0, 1.0)
        sym, pred, dev = stationary_fdr_check(ModeParams(2.0, 1.0, nbar), 1.0)
        assert pred == pytest.approx(0.5 / math.tanh(1.0), rel=1e-12)
        assert dev <= 1e-9

    def test_simple_occupation(self):
        # beta = ln 3, E = 1: n_B = 1/2, prediction = 1
        nbar = bose_occupation(1.0, math.log(3.0))
        assert nbar == pytest.approx(0.5, rel=1e-12)
        sym, pred, dev = stationary_fdr_check(ModeParams(1.0, 0.8, nbar), math.log(3.0))
        assert pred == pytest.approx(1.0, rel=1e-12)
        assert dev <= 1e-9

    def test_vacuum(self):
        sym, pred, dev = stationary_fdr_check(ModeParams(1.0, 1.0, 0.0), math.inf)
        assert pred == 0.5
        assert dev <= 1e-9

    @pytest.mark.parametrize("beta", [1.0, 1e-6, 1e-12])
    def test_nbar_bound_in_units_of_its_cancellation(self, beta):
        # nbar from the thermal rates passes at every temperature, where the
        # old 1e-9 failed at 1e-12; nbar = k+ / (k- + k+), a wrong sign in
        # the difference, is refused; at beta = 1 the bounds are no looser
        # than the 1e-9 they replace
        env = EnvironmentSpec(beta=beta)
        kp, km = kappa_markov_kms(env, +2.0), kappa_markov_kms(env, -2.0)
        sym, pred, dev = stationary_fdr_check(ModeParams(2.0, kp + km, kp / (km - kp)), beta)
        n = bose_occupation(2.0, beta)
        assert dev <= ROUNDING * (n + 1.0) * pred
        with pytest.raises(ValueError, match="inconsistent"):
            stationary_fdr_check(ModeParams(2.0, kp + km, kp / (km + kp)), beta)
        if beta == 1.0:
            assert ROUNDING * (n + 1.0) * n <= 1e-9 * max(n, 1.0)
            assert ROUNDING * (n + 1.0) * pred <= 1e-9

    def test_inconsistent_nbar_rejected(self):
        with pytest.raises(ValueError):
            stationary_fdr_check(ModeParams(1.0, 1.0, 0.3), math.inf)
        with pytest.raises(ValueError):
            stationary_fdr_check(ModeParams(1.0, 1.0, 0.0), 1.0)

    def test_markov_rates_thermalize_mode(self):
        # gamma from the ideal-clock thermal rates, nbar from their ratio:
        # the stationary occupation must be the Bose function
        env = EnvironmentSpec(beta=0.8)
        E = 2.5
        kp, km = kappa_markov_kms(env, +E), kappa_markov_kms(env, -E)
        gamma = kp + km
        nbar = kp / (km - kp)
        p = ModeParams(energy_E=E, gamma=gamma, nbar=nbar)
        m = mode_evolve_moments(p, ModeMoments(occupation_n=4.0), 60.0 / gamma)
        assert m.occupation_n == pytest.approx(bose_occupation(E, 0.8), abs=1e-9)


def test_csv_emission(tmp_path):
    p = ModeParams(energy_E=2.0, gamma=1.0, nbar=0.5)
    path = tmp_path / "mode.csv"
    write_moment_trajectory_csv(path, p, ModeMoments(mean_a=1.0, occupation_n=3.0),
                                np.linspace(0, 5, 6))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "re_mean", "im_mean", "n", "re_m", "im_m", "ccr_defect"]
    assert len(rows) == 7
    assert float(rows[1][3]) == pytest.approx(3.0)
    assert all(float(row[6]) <= 1e-15 for row in rows[1:])
