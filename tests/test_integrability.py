import math
import warnings

import numpy as np
import pytest

from relclock.correlators import EnvironmentSpec
from relclock.gkls import build_generator, qubit_decay_model, unvec, vec
from relclock.integrability import (
    MomentumGridModel,
    SliceLattice,
    boost_interchange_residual,
    build_slice_generator,
    functional_curl_residual,
)
from relclock.kernels import GaussianKernel

ENV = EnvironmentSpec(mass_E=1.0, coupling_g=1.0)
KER2 = GaussianKernel(2.0)


class TestLattice:
    def test_non_timelike_rejected(self):
        with pytest.raises(ValueError):
            SliceLattice(n_sites=3, heights=(0.0, 1.5, 3.0), spacing=1.0)

    def test_tilted_rapidities(self):
        lat = SliceLattice.tilted(5, 1.0, 0.3)
        for i in range(1, 4):
            assert lat.discrete_rapidity(i) == pytest.approx(0.3, rel=1e-12)

    def test_size_limit(self):
        # only the full-chain generator is 4^n x 4^n; the lattice itself is not capped
        lat = SliceLattice(n_sites=7, heights=(0,) * 7, spacing=1.0)
        with pytest.raises(ValueError, match="n_sites <= 6"):
            build_slice_generator(lat, 0, ENV, KER2)
        with pytest.raises(ValueError, match="n_sites"):
            SliceLattice(n_sites=0, heights=(), spacing=1.0)


class TestSliceGenerator:
    def test_single_site_matches_qubit_model(self):
        lat = SliceLattice(n_sites=1, heights=(0.0,), spacing=1.0, site_energy=3.0)
        gen = build_slice_generator(lat, 0, ENV, KER2)
        from relclock.rates import RateQuery, kappa_tcl_vacuum

        gd = kappa_tcl_vacuum(RateQuery(omega=-3.0, kernel=KER2, env=ENV))
        gu = kappa_tcl_vacuum(RateQuery(omega=+3.0, kernel=KER2, env=ENV))
        ref = build_generator(qubit_decay_model(3.0, gd, gu))
        assert np.abs(gen.matrix - ref.matrix).max() <= 1e-14

    def test_flat_sampled_equals_independent(self):
        flat_s = SliceLattice(n_sites=3, heights=(0, 0, 0), spacing=1.0, rate_mode="normal_sampled")
        flat_i = SliceLattice(n_sites=3, heights=(0, 0, 0), spacing=1.0, rate_mode="normal_independent")
        a = build_slice_generator(flat_s, 1, ENV, KER2).matrix
        b = build_slice_generator(flat_i, 1, ENV, KER2).matrix
        assert np.abs(a - b).max() <= 1e-14

    def test_clock_frame_rate_against_quadrature_oracle(self):
        # time-dilated site frequency nu = w0 cosh(eta): extract the decay
        # rate from the generator and compare with a dense trapezoid of
        # int j(E) w_hat(nu + E) dE
        lat = SliceLattice.tilted(3, 1.0, 0.3, rate_mode="normal_sampled", site_energy=3.0)
        gen = build_slice_generator(lat, 1, ENV, KER2)
        # site 1 excited, others ground (excited = upper sz level = index 0)
        e = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        psi = np.kron(np.kron(g, e), g)
        rho = np.outer(psi, psi).astype(complex)
        idx = int(np.argmax(psi))
        drho = unvec(gen.matrix @ vec(rho), 8)
        gamma_down = -drho[idx, idx].real
        nu = 3.0 * math.cosh(0.3)
        E = np.linspace(1.0, nu + 8.0 / 2.0, 400_001)
        what = math.sqrt(2 * math.pi) * 2.0 * np.exp(-0.5 * 4.0 * (E - nu) ** 2)
        oracle = np.trapezoid(np.sqrt(E**2 - 1) / (4 * math.pi**2) * what, E)
        assert gamma_down == pytest.approx(oracle, rel=1e-6)
        # and it differs from the untilted rate by the dilation shift
        flat = build_slice_generator(
            SliceLattice(3, (0, 0, 0), 1.0, rate_mode="normal_sampled", site_energy=3.0),
            1, ENV, KER2)
        flat_gamma = -unvec(flat.matrix @ vec(rho), 8)[idx, idx].real
        assert abs(gamma_down - flat_gamma) > 1e-3


class TestCurl:
    def test_null_case_exact(self):
        lat = SliceLattice(n_sites=4, heights=(0.0, 0.2, 0.1, -0.1), spacing=1.0,
                           rate_mode="normal_independent")
        r = functional_curl_residual(lat, 1, 2, ENV, KER2)
        assert r.value <= 1e-12
        assert r.commutator_part == 0.0

    def test_null_random_geometries(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            heights = np.cumsum(rng.uniform(-0.9, 0.9, size=n))
            heights -= heights[0]
            lat = SliceLattice(n_sites=n, heights=tuple(heights), spacing=1.0,
                               rate_mode="normal_independent")
            x, y = sorted(rng.choice(n, size=2, replace=False))
            r = functional_curl_residual(lat, int(x), int(y), ENV, KER2)
            assert r.value <= 1e-12

    def test_tilted_normal_sampled_nonzero(self):
        lat = SliceLattice.tilted(4, 1.0, 0.3, rate_mode="normal_sampled")
        r = functional_curl_residual(lat, 1, 2, ENV, KER2)
        assert r.value >= 1e-3
        assert r.value <= r.commutator_part + r.shape_part_xy + r.shape_part_yx + 1e-12

    def test_long_tilted_chain_matches_short(self):
        # the curl works on sites {x, y} alone, so a 1000-site chain costs
        # what a 4-site one does; interior sites 1 and 2 see the same slice
        vals = [functional_curl_residual(
                    SliceLattice.tilted(n, 1.0, 0.3, rate_mode="normal_sampled"), 1, 2, ENV, KER2
                ).value for n in (4, 5, 6, 1000)]
        assert vals[0] >= 1e-3
        assert max(vals) - min(vals) <= 1e-12 * vals[0]

    def test_non_adjacent_sampled_exact_zero(self):
        lat = SliceLattice.tilted(4, 1.0, 0.3, rate_mode="normal_sampled")
        r = functional_curl_residual(lat, 0, 3, ENV, KER2)
        assert r.value <= 1e-12

    def test_monotone_healing_in_sigma(self):
        vals = []
        for s in (1.0, 2.0, 5.0, 10.0):
            lat = SliceLattice.tilted(3, 1.0, 0.3, rate_mode="normal_sampled")
            r = functional_curl_residual(lat, 0, 1, ENV, GaussianKernel(s))
            vals.append(r.value)
        assert all(vals[i] > vals[i + 1] for i in range(3))

    def test_same_site_rejected(self):
        lat = SliceLattice(n_sites=3, heights=(0, 0, 0), spacing=1.0)
        with pytest.raises(ValueError):
            functional_curl_residual(lat, 1, 1, ENV, KER2)


def _dense_curl(lat, x, y, kernel):
    """Reference curl on the full chain: 4^n x 4^n generators, dense SVD norms."""
    eps = 1e-4 * lat.spacing  # the default of functional_curl_residual

    def gen(l, site):
        return build_slice_generator(l, site, ENV, kernel).matrix

    def deformed(site, h):
        heights = list(lat.heights)
        heights[site] += h
        return SliceLattice(lat.n_sites, tuple(heights), lat.spacing,
                            rate_mode=lat.rate_mode, site_energy=lat.site_energy)

    Lx, Ly = gen(lat, x), gen(lat, y)
    comm = Lx @ Ly - Ly @ Lx
    d_xy = (gen(deformed(x, eps), y) - gen(deformed(x, -eps), y)) / (2.0 * eps)
    d_yx = (gen(deformed(y, eps), x) - gen(deformed(y, -eps), x)) / (2.0 * eps)
    parts = (comm + d_xy - d_yx, comm, d_xy, d_yx)
    return [float(np.linalg.norm(M, 2)) if np.any(M) else 0.0 for M in parts]


class TestCurlDenseOracle:
    """The two-site curl equals the full-chain curl on random timelike slices."""

    @staticmethod
    def _agree(r, ref):
        got = [r.value, r.commutator_part, r.shape_part_xy, r.shape_part_yx]
        for a, b in zip(got, ref):
            assert (a == 0.0 and b == 0.0) or abs(a - b) <= 1e-12 * abs(b), (got, ref)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["normal_independent", "normal_sampled"])
    def test_random_slices(self, n, mode):
        rng = np.random.default_rng(100 * n + len(mode))
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        for sigma in (1.0, 2.0, 5.0):
            heights = np.cumsum(rng.uniform(-0.8, 0.8, size=n))
            lat = SliceLattice(n_sites=n, heights=tuple(heights - heights[0]),
                               spacing=1.0, rate_mode=mode)
            ker = GaussianKernel(sigma)
            for x, y in pairs:
                self._agree(functional_curl_residual(lat, x, y, ENV, ker),
                            _dense_curl(lat, x, y, ker))

    def test_stencil_reaches_outside_pair(self):
        # sites 1 and 2 of a 4-site chain read heights at 0 and 3: the
        # rates need the full lattice even though the operators live on {1, 2}
        lat = SliceLattice(n_sites=4, heights=(0.0, 0.3, -0.2, 0.5), spacing=1.0,
                           rate_mode="normal_sampled")
        h = lat.heights
        assert lat.discrete_rapidity(1) == math.atanh((h[2] - h[0]) / 2.0)
        assert lat.discrete_rapidity(2) == math.atanh((h[3] - h[1]) / 2.0)
        sub = SliceLattice(n_sites=2, heights=lat.heights[1:3], spacing=1.0,
                           rate_mode="normal_sampled")
        for x, y in ((1, 2), (2, 1)):
            r = functional_curl_residual(lat, x, y, ENV, KER2)
            self._agree(r, _dense_curl(lat, x, y, KER2))
            assert abs(r.value - functional_curl_residual(sub, 0, 1, ENV, KER2).value) > 1e-3
            assert r.commutator_part == 0.0

    def test_site_out_of_range(self):
        lat = SliceLattice(n_sites=3, heights=(0, 0, 0), spacing=1.0)
        for x, y in ((0, 3), (-1, 1)):
            with pytest.raises(ValueError, match="out of range"):
                functional_curl_residual(lat, x, y, ENV, KER2)


class TestBoost:
    def test_covariant_refines_geometric_plateaus(self):
        cov = boost_interchange_residual(
            MomentumGridModel(ENV, 64, 3.0, 3.0, "comoving_covariant")
        )
        geo = boost_interchange_residual(
            MomentumGridModel(ENV, 64, 3.0, 3.0, "geometric_normal")
        )
        # covariant: every refinement shrinks the residual
        assert cov.residuals[0] / cov.residuals[1] >= 1.7
        assert cov.residuals[1] / cov.residuals[2] >= 1.7
        assert cov.refinement_order >= 1.0
        # geometric: plateau after subtracting the measured interpolation
        # baseline in quadrature
        net = [
            math.sqrt(max(r * r - b * b, 0.0))
            for r, b in zip(geo.residuals, geo.baselines)
        ]
        assert max(net) / min(net) <= 1.2
        assert geo.residuals[1] / geo.residuals[2] <= 1.7
        # the physical split at the finest grid
        assert geo.residual / cov.residual >= 100.0

    def test_zero_rate_matches_baseline(self):
        # with all rates off the residual is pure interpolation error
        off = EnvironmentSpec(coupling_g=0.0)
        res = boost_interchange_residual(MomentumGridModel(off, 32, 3.0, 3.0, "comoving_covariant"))
        assert res.residuals == res.baselines

    def test_rapidity_step_validation(self):
        m = MomentumGridModel(ENV, 32, 3.0, 3.0, "comoving_covariant")
        with pytest.raises(ValueError):
            boost_interchange_residual(m, d_rapidity=0.5)
        with pytest.raises(ValueError, match="n_modes"):
            boost_interchange_residual(
                MomentumGridModel(ENV, 30, 3.0, 3.0, "comoving_covariant")
            )
        # the coarsest refinement grid, n/4, needs two modes
        with pytest.raises(ValueError, match="n_modes must be >= 8"):
            MomentumGridModel(ENV, 4, 3.0, 3.0, "comoving_covariant")

    def test_edge_leak_warns(self):
        # on the 2-mode coarsest grid of an 8-mode model every packet touches
        # the grid edge; the warning points at the caller of the residual
        m = MomentumGridModel(ENV, 8, 3.0, 3.0, "comoving_covariant")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            boost_interchange_residual(m)
        leaks = [w for w in caught if "zero padded" in str(w.message)]
        assert leaks
        assert all(w.filename == __file__ for w in leaks)
