#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the relclock batch CLI.

Run from the root of a relclock checkout (the package is taken from ./src):

    python3 relbench/run.py --workload cold_defaults --seed 1 --seconds 35 --trace 0

A workload is a fixed list of ``relclock <scenario> --config ...`` runs.
Every run is a fresh process and the runs go one after another from this
process: a closed loop with one client.  Stochastic scenarios take their seed
from ``--seed``.  One pass runs the whole list; the benchmark repeats passes
while they fit in ``--seconds`` (at least one) and reports medians.

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb),
measured with tracing off.  ``--trace 1`` alternates an untraced pass with a
traced one, in which every process is ``relbench/tracer.py`` and spans wrap
the calls into each relclock module, and prints the per-layer metrics.

A process counts as failed on a non-zero exit, a missing artifact or
summary.json, a false check, or an artifact whose sha256 differs from an
earlier repeat of the same config and seed in this run (traced repeats
included).  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a longer record of the run is written
to .relbench/ in the checkout.  See relbench/README.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".relbench"

#: every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
#: fresh interpreters whose median wall time is setup_s
SETUP_REPEATS = 5
#: single-threaded BLAS in every child: on a 2-vCPU machine the first
#: multi-threaded BLAS call after the second vCPU idled cost up to 1 s extra
#: (the cold_defaults noise run: 2.9 s first, 1.4 s after), which swamped
#: the differences the benchmark is for
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Proc:
    """One ``relclock <scenario> --config`` process of a workload."""

    name: str
    scenario: str
    config: str


def _config(scenario, seed=None, **sections):
    lines = ["[run]", f"scenario = {scenario}"]
    if seed is not None:
        lines.append(f"seed = {seed}")
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def workloads(seed, small=False):
    """The three workloads; ``small`` shrinks them for the self-test.

    cold_defaults is every scenario at its declared defaults, so each process
    is mostly interpreter start and ``import relclock.cli``.  scan has no RNG:
    kernel certification (coherent rates), quadrature (thermal rates) and
    dense 4^n superoperators (5-site curl) do the work.  monte_carlo is RNG
    plumbing, trajectory stepping and the colored-noise sampler; its two
    unravel runs pull the trajectory chunk toward speed (wide) and toward
    memory (deep).  The 6-site curl (about 140 s per run) is left out.
    """

    def sized(full, shrunk):
        return shrunk if small else full

    unravel_default = {"unravel": {"n_traj": 500}} if small else {}
    cold = [
        Proc("rates", "rates", _config("rates", rates={"omega_min": -4, "omega_max": 1, "omega_points": 6})),
        Proc("lamb_shift", "lamb_shift", _config("lamb_shift")),
        Proc("markov_limit", "markov_limit", _config("markov_limit")),
        Proc("kms", "kms", _config("kms", env={"beta": 1})),
        Proc("gkls", "gkls", _config("gkls")),
        Proc("langevin", "langevin", _config("langevin")),
        Proc("unravel", "unravel", _config("unravel", seed, **unravel_default)),
        Proc("noise", "noise", _config("noise", seed)),
        Proc("curl", "curl", _config("curl")),
        Proc("boost", "boost", _config("boost")),
        Proc("cq", "cq", _config("cq")),
        Proc("tradeoff", "tradeoff", _config("tradeoff", tradeoff={"d0": 1, "d1": 1, "d2": 1})),
    ]
    scan = [
        Proc("rates_coherent", "rates", _config(
            "rates", rates={"omega_min": -4, "omega_max": 1, "omega_points": sized(800, 8)},
            kernel={"kind": "coherent", "r": 3, "omega_c": 1})),
        Proc("rates_thermal", "rates", _config(
            "rates", rates={"omega_min": -4, "omega_max": 4, "omega_points": sized(400, 8)},
            env={"beta": 1}, kernel={"sigma": 1})),
        Proc("curl_5site", "curl", _config("curl", curl={"n_sites": sized(5, 3)})),
    ]
    monte_carlo = [
        Proc("unravel_wide", "unravel", _config(
            "unravel", seed, unravel={"n_traj": sized(20_000, 400), "t": 1, "dt": 0.001})),
        Proc("unravel_deep", "unravel", _config(
            "unravel", seed, unravel={"n_traj": sized(512, 16), "t": sized(20, 4), "dt": 0.001})),
        Proc("noise_cap", "noise", _config(
            "noise", seed, noise={"grid_points": sized(256, 8), "n_real": 20_000})),
    ]
    return {"cold_defaults": cold, "scan": scan, "monte_carlo": monte_carlo}


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (metric, span name, what is summed over the spans of that name)
SPAN_METRICS = [
    ("cli.import_s", "cli.import", "total"),
    ("cli.parse_s", "cli.parse", "total"),
    ("cli.write_s", "cli.write", "total"),
    ("kernels.gram_check_s", "kernels.gram_check", "total"),
    ("kernels.gram_checks", "kernels.gram_check", "count"),
    ("kernels.spectrum_s", "kernels.spectrum", "total"),
    ("kernels.spectrum_calls", "kernels.spectrum", "count"),
    ("rates.query_init_s", "rates.query_init", "total"),
    ("rates.queries", "rates.query_init", "count"),
    ("rates.kappa_self_s", "rates.kappa", "self"),
    ("rates.kappa_calls", "rates.kappa", "count"),
    ("specfun.quad_s", "specfun.quad", "total"),
    ("specfun.quad_calls", "specfun.quad", "count"),
    ("correlators.wightman_s", "correlators.wightman", "total"),
    ("correlators.wightman_calls", "correlators.wightman", "count"),
    ("gkls.generator_s", "gkls.generator", "total"),
    ("gkls.generator_calls", "gkls.generator", "count"),
    ("gkls.evolve_s", "gkls.evolve", "total"),
    ("gkls.choi_s", "gkls.choi", "total"),
    ("integrability.curl_self_s", "integrability.curl", "self"),
    ("integrability.boost_s", "integrability.boost", "total"),
    ("trajectories.unravel_self_s", "trajectories.unravel", "self"),
    ("trajectories.noise_self_s", "trajectories.noise", "self"),
    ("accel.step_chunk_s", "accel.step_chunk", "total"),
    ("accel.fv_step_s", "accel.fv_step", "total"),
    ("hybridcq.evolve_grid_self_s", "hybridcq.evolve_grid", "self"),
]

# counters the traced runner reads from return values, and how the
# observations of one pass are merged; a counter never observed reads 0
COUNTERS = {
    "specfun.quad_evals": sum,
    "specfun.quad_err_max": max,
    "gkls.superop_dim_max": max,
    "trajectories.traj_steps": sum,
    "trajectories.realizations": sum,
    "trajectories.noise_buffer_mb": max,
    "trajectories.ess_frac": min,
    "trajectories.noise_clipped_mass": max,
    "accel.chunk_steps": sum,
    "accel.fv_cell_steps": sum,
}

SPECIAL_UNITS = {
    "cli.csv_bytes": "bytes",
    "specfun.quad_err_max": "1",
    "gkls.superop_dim_max": "count",
    "trajectories.noise_buffer_mb": "MB",
    "trajectories.ess_frac": "fraction",
    "trajectories.noise_clipped_mass": "1",
    "hybridcq.min_block_eig": "1",
}


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    names = [m for m, _, _ in SPAN_METRICS] + ["cli.csv_bytes"] + list(COUNTERS)
    names += ["hybridcq.min_block_eig", "trace.overhead_s"]
    for procs in workloads(0).values():
        for p in procs:
            names += [f"proc.{p.name}.wall_s", f"proc.{p.name}.runner_s", f"proc.{p.name}.peak_rss_mb"]
    units = {}
    for name in names:
        if name in SPECIAL_UNITS:
            units[name] = SPECIAL_UNITS[name]
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_mb"):
            units[name] = "MB"
        else:
            units[name] = "count"
    return units


@dataclass
class ProcRun:
    proc: Proc
    rc: int
    wall_s: float
    rss_mb: float
    out: Path
    log: Path
    trace: Path | None
    summary: dict | None = None
    problem: str | None = None


class Runner:
    """Starts child processes one at a time and waits for each to end."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, **BLAS_THREADS,
                        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.n = 0

    def spawn(self, argv):
        """Run argv to its end; return (exit code, wall s, peak RSS MB, log)."""
        self.n += 1
        log = self.workdir / f"log-{self.n}.txt"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, log

    def run_pass(self, procs, tag, traced):
        """One pass over the workload; returns (pass wall s, [ProcRun])."""
        passdir = self.workdir / tag
        passdir.mkdir()
        runs = []
        t0 = time.perf_counter()
        for p in procs:
            out = passdir / p.name
            config = str(self.workdir / f"{p.name}.ini")
            if traced:
                trace = passdir / f"{p.name}.trace.json"
                argv = [sys.executable, str(HERE / "tracer.py"), p.scenario, config, str(out), str(trace)]
            else:
                trace = None
                argv = [sys.executable, "-m", "relclock.cli", p.scenario, "--config", config,
                        "--output", str(out), "--quiet"]
            rc, wall, rss, log = self.spawn(argv)
            runs.append(ProcRun(p, rc, wall, rss, out, log, trace))
        return time.perf_counter() - t0, runs


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(run, reference):
    """Set ``run.problem`` when the process failed; ``reference`` maps a
    process name to the artifact hashes of its first repeat."""
    problems = []
    if run.rc != 0:
        problems.append(f"exit code {run.rc}")
    try:
        run.summary = json.loads((run.out / "summary.json").read_text())
    except (OSError, ValueError):
        problems.append("missing or unreadable summary.json")
    else:
        false = [k for k, v in run.summary.get("checks", {}).items() if v is not True]
        if false:
            problems.append("false checks: " + ", ".join(false))
        hashes = {}
        for name in run.summary.get("artifacts") or ():
            path = run.out / name
            if path.is_file():
                hashes[name] = _sha256(path)
            else:
                problems.append(f"missing artifact {name}")
        if not hashes:
            problems.append("no artifacts")
        elif reference.setdefault(run.proc.name, hashes) != hashes:
            problems.append("artifact sha256 differs from an earlier repeat")
    if problems:
        run.problem = "; ".join(problems)


def _spans_by_name(spans):
    """{span name: [total s, self s, count]} for one traced process."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += end - start
        acc[1] += end - start - covered[i]
        acc[2] += 1
    return out


def layer_metrics(runs):
    """Per-layer metrics of one traced pass, plus per-process layer tables."""
    metrics = {m: 0.0 for m, _, _ in SPAN_METRICS}
    counts = {key: [] for key in COUNTERS}
    csv_bytes = 0
    block_eigs = []
    tables = {}
    for run in runs:
        if run.trace is None or not run.trace.is_file():
            continue
        data = json.loads(run.trace.read_text())
        layers = _spans_by_name(data["spans"])
        tables[run.proc.name] = layers
        for metric, span, what in SPAN_METRICS:
            total, own, n = layers.get(span, (0.0, 0.0, 0))
            metrics[metric] += {"total": total, "self": own, "count": n}[what]
        for key, values in data["counts"].items():
            counts[key] += values
        if run.summary:
            for name in run.summary.get("artifacts") or ():
                if name.endswith(".csv") and (run.out / name).is_file():
                    csv_bytes += (run.out / name).stat().st_size
            eig = run.summary.get("outputs", {}).get("min_block_eigenvalue")
            if eig is not None:
                block_eigs.append(float(eig))
    metrics["cli.csv_bytes"] = csv_bytes
    for key, how in COUNTERS.items():
        metrics[key] = how(counts[key]) if counts[key] else 0
    metrics["hybridcq.min_block_eig"] = min(block_eigs) if block_eigs else 0.0
    return metrics, tables


def end_to_end(passes, setup):
    """wall_s, setup_s and peak_rss_mb: medians over the untraced passes."""
    return {
        "wall_s": statistics.median(w for w, _, _, _ in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(
            statistics.fmean(r.rss_mb for r in runs) for _, runs, _, _ in passes),
    }


def per_layer(passes, procs):
    """Per-layer metrics (medians over traced passes), per-process metrics
    (medians over untraced passes) and the tracing overhead."""
    per_pass = [layer_metrics(t_runs) for _, _, _, t_runs in passes]
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    metrics["trace.overhead_s"] = statistics.median(tw - w for w, _, tw, _ in passes)
    metrics.update({name: 0.0 for name in layer_units() if name.startswith("proc.")})
    for p in procs:
        mine = [next(r for r in runs if r.proc is p) for _, runs, _, _ in passes]
        metrics[f"proc.{p.name}.wall_s"] = statistics.median(r.wall_s for r in mine)
        metrics[f"proc.{p.name}.runner_s"] = statistics.median(
            float(r.summary["wall_time_s"]) if r.summary else 0.0 for r in mine)
        metrics[f"proc.{p.name}.peak_rss_mb"] = statistics.median(r.rss_mb for r in mine)
    return metrics, per_pass[0][1]


def run_record(seed, machine):
    """Machine, versions, git sha, seed and src/ line count of this run."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    lines = sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py")))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, **machine, "git_sha": sha, "seed": seed,
            "src_lines": lines}


def measure(workload, seed, seconds, trace, small=False):
    """Run one benchmark run; return (result, report lines, detail)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    procs = workloads(seed, small)[workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        runner = Runner(workdir, deadline)
        # warm-up: compiles bytecode, fills the page cache, reads versions
        rc, _, _, log = runner.spawn([sys.executable, str(HERE / "probe.py"), "machine"])
        if rc != 0:
            raise RuntimeError("relclock does not import:\n" + log.read_text()[-2000:])
        machine = json.loads(log.read_text().strip().splitlines()[-1])
        if not Path(machine["relclock_file"]).is_relative_to(SRC):
            raise RuntimeError(f"relclock imported from {machine['relclock_file']}, not {SRC}")
        record = run_record(seed, machine)
        for p in procs:
            (workdir / f"{p.name}.ini").write_text(p.config)

        attempted, failures, reference = 0, [], {}

        def account(process, problem, log):
            nonlocal attempted
            attempted += 1
            if problem:
                failures.append({"process": process, "problem": problem,
                                 "log": log.read_text(errors="replace")[-2000:]})

        setup = []
        if not trace:
            configs = [str(workdir / f"{p.name}.ini") for p in procs]
            for _ in range(1 if small else SETUP_REPEATS):
                rc, wall, _, log = runner.spawn([sys.executable, str(HERE / "probe.py"), "parse", *configs])
                setup.append(wall)
                account("setup", rc and f"exit code {rc}", log)

        passes = []  # (untraced wall, untraced runs, traced wall or None, traced runs)
        window = time.monotonic()
        while True:
            n = len(passes)
            wall, runs = runner.run_pass(procs, f"pass{n}", traced=False)
            t_wall, t_runs = runner.run_pass(procs, f"traced{n}", traced=True) if trace else (None, [])
            for run in runs + t_runs:
                check(run, reference)
                account(run.proc.name, run.problem, run.log)
            passes.append((wall, runs, t_wall, t_runs))
            spent = [w + (tw or 0.0) for w, _, tw, _ in passes]
            next_pass = statistics.median(spent)
            now = time.monotonic()
            if now - window + next_pass > seconds or now + 1.5 * next_pass > deadline:
                break

        lines = [f"workload {workload}  seed {seed}  trace {trace}  passes {len(passes)}  "
                 f"processes per pass {len(procs)}"]
        if trace:
            metrics, tables = per_layer(passes, procs)
            units = layer_units()
        else:
            metrics, tables = end_to_end(passes, setup), {}
            units = END_TO_END_UNITS
        metrics = {name: metrics[name] for name in units}
        failed = len(failures)
        for name, value in metrics.items():
            if value or not name.startswith("proc."):
                lines.append(f"  {name:40s} {value:>16.6g} {units[name]}")
        for name, layers in tables.items():
            top = sorted(layers.items(), key=lambda kv: -kv[1][1])[:3]
            lines.append(f"  self time in {name}: " + ", ".join(f"{span} {own:.3f} s" for span, (_, own, _) in top))
        lines.append(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ({failed} of {attempted} processes)")
        for f in failures:
            lines.append(f"  FAILED {f['process']}: {f['problem']}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        detail = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "record": record, "result": result, "failed_frac": failed / attempted,
            "failures": failures, "setup_walls_s": setup,
            "passes": [{"wall_s": w, "traced_wall_s": tw,
                        "processes": {r.proc.name: {"wall_s": r.wall_s, "peak_rss_mb": r.rss_mb,
                                                    "exit": r.rc} for r in runs}}
                       for w, runs, tw, _ in passes],
            "layers_by_process": {name: {span: {"total_s": t, "self_s": s, "calls": c}
                                         for span, (t, s, c) in layers.items()}
                                  for name, layers in tables.items()},
        }
        return result, lines, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None, small=False):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(0)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "relclock" / "cli.py").is_file():
        print(f"relbench: no relclock sources under {SRC}; run from a relclock checkout",
              file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps the scenario it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, lines, detail = measure(args.workload, args.seed, args.seconds, args.trace, small)
    except RuntimeError as exc:
        print(f"relbench: {exc}", file=sys.stderr)
        return 2
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for line in lines:
        print(line)
    print("run record: " + json.dumps(detail["record"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
