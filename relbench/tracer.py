"""Traced runner: one relclock scenario in a fresh process, with spans.

Times ``import relclock.cli``, then wraps the public functions of each
relclock module at every place the name is looked up, runs ``parse_config``
and ``run_scenario`` exactly as the CLI does, and writes the spans and
counters as JSON when the scenario ends.  Nothing under ``src/`` changes; the
artifacts the scenario writes are the ones the untraced CLI writes.

    PYTHONPATH=src python3 relbench/tracer.py SCENARIO CONFIG OUTPUT_DIR TRACE_JSON

The exit code is the one ``relclock`` would return (0 pass, 2 failed check).
"""

import sys
import time


class Tracer:
    """Spans (name, start, end, parent index) and counter observations,
    kept in memory; the benchmark merges the observations."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def record(self, name, start, end):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent])

    def count(self, key, value):
        self.counts.setdefault(key, []).append(value)

    def wrap(self, name, fn, observe=None):
        """Span around ``fn``; a call made from inside a span of the same
        name is folded into it, so one layer entry counts once."""
        import functools

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _observe_quad(tr, args, kwargs, res):
    tr.count("specfun.quad_evals", res.evaluations)
    tr.count("specfun.quad_err_max", res.error_estimate)


def _observe_generator(tr, args, kwargs, res):
    tr.count("gkls.superop_dim_max", res.matrix.shape[0])


def _observe_unravel(sig):
    def observe(tr, args, kwargs, ens):
        import numpy as np

        a = sig.bind(*args, **kwargs).arguments
        tr.count("trajectories.traj_steps", a["n_traj"] * int(round(a["t"] / a["dt"])))
        # effective sample size of the final trajectory norms (weights)
        w = np.sum(np.abs(ens.states[:, -1, :]) ** 2, axis=1)
        ess = float(w.sum() ** 2 / np.sum(w * w)) if np.any(w) else 0.0
        tr.count("trajectories.ess_frac", ess / ens.n_traj)

    return observe


def _observe_noise(tr, args, kwargs, field):
    tr.count("trajectories.realizations", field.samples.shape[0])
    tr.count("trajectories.noise_clipped_mass", field.clipped_mass)


def _observe_step_chunk(tr, args, kwargs, out):
    noise = args[3] if len(args) > 3 else kwargs["noise"]
    tr.count("accel.chunk_steps", noise.shape[0] * noise.shape[1])
    tr.count("trajectories.noise_buffer_mb", noise.nbytes / 2**20)


def _observe_fv(tr, args, kwargs, out):
    blocks = args[0] if args else kwargs["blocks"]
    tr.count("accel.fv_cell_steps", blocks.shape[0])


def install(tr):
    """Replace each traced function at every module attribute that holds it."""
    import inspect

    from relclock import (
        _accel, cli, correlators, gkls, hybridcq, integrability, kernels,
        langevin, rates, specfun, trajectories,
    )

    targets = [
        (cli, "_write_csv", "cli.write", None),
        (trajectories, "write_ensemble_csv", "cli.write", None),
        (hybridcq, "write_hybrid_csv", "cli.write", None),
        (langevin, "write_moment_trajectory_csv", "cli.write", None),
        (cli, "run_scenario", "cli.run", None),
        (kernels, "positivity_gram_check", "kernels.gram_check", None),
        (kernels, "kernel_spectrum", "kernels.spectrum", None),
        (specfun, "integrate_adaptive", "specfun.quad", _observe_quad),
        (correlators, "wightman_timelike", "correlators.wightman", None),
        (gkls, "build_generator", "gkls.generator", _observe_generator),
        (gkls, "evolve", "gkls.evolve", None),
        (gkls, "cp_choi_check", "gkls.choi", None),
        (integrability, "functional_curl_residual", "integrability.curl", None),
        (integrability, "build_slice_generator", "integrability.slice_generator", None),
        (integrability, "boost_interchange_residual", "integrability.boost", None),
        (trajectories, "unravel_linear", "trajectories.unravel",
         _observe_unravel(inspect.signature(trajectories.unravel_linear))),
        (trajectories, "sample_colored_noise", "trajectories.noise", _observe_noise),
        (_accel, "step_trajectory_chunk", "accel.step_chunk", _observe_step_chunk),
        (_accel, "fv_drift_diffusion_step", "accel.fv_step", _observe_fv),
        (hybridcq, "cq_evolve_grid", "hybridcq.evolve_grid", None),
    ]
    targets += [
        (rates, name, "rates.kappa", None)
        for name in ("kappa_tcl", "kappa_tcl_vacuum", "kappa_tcl_kms",
                     "kappa_markov", "kappa_markov_vacuum", "kappa_markov_kms")
    ]
    modules = [m for n, m in sys.modules.items() if n == "relclock" or n.startswith("relclock.")]
    for home, attr, name, observe in targets:
        original = getattr(home, attr)
        wrapper = tr.wrap(name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    query = rates.RateQuery
    query.__post_init__ = tr.wrap("rates.query_init", query.__post_init__)


def main(argv):
    scenario, config, output, trace_path = argv
    t0 = time.perf_counter()
    import relclock.cli as cli
    t1 = time.perf_counter()

    import json
    from pathlib import Path

    tr = Tracer()
    tr.record("cli.import", t0, t1)
    install(tr)
    rc = 1
    try:
        t0 = time.perf_counter()
        cfg = cli.parse_config(Path(config).read_text(), scenario=scenario)
        tr.record("cli.parse", t0, time.perf_counter())
        cfg.output_path = Path(output)
        rc = cli.run_scenario(cfg, quiet=True)
    finally:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tr.spans, "counts": tr.counts}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
