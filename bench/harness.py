"""Workload operations, checks and metrics of the benchmark.

Four workloads, each a closed loop of one operation after another for the
requested number of seconds:

``grid-solve``
    ``solve_esre`` (ODE backend) on e1 at N=2000 and on the three random
    family members at N=800; each family member is followed by the direct
    oracle, and every problem by ``feedback_gain`` and the solution CSV.
``tree-lattice``
    CLI ``solve`` of a generated tree-backend run file (n=2, ell=2, D != 0,
    Brownian-driven Q) parsed by ``parse_config``.
``mc-verify``
    CLI ``verify`` of the 2x2 two-regime problem with one perturbation.
``mc-scalar``
    CLI ``simulate`` of the scalar asymmetric two-regime problem.

Checks use the repository's own tolerances: acceptance criterion 01
(|P(0) - 1/2| <= 1e-6 for e1), criterion 03 (sup distance to the direct
oracle <= 1e-7), the exit code and PASS line of ``verify``, and the value
match of ``verify`` (|mean - value| <= max(3 se, 0.01 (1 + |value|))) for
the two ``simulate`` estimates.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import regimelq
from regimelq import cli, config, control, esre
from regimelq.esre import GridIterate, SolverOptions

import inputs
from spans import CAPTURE, FULL, Tracer
from speed import NOMINAL_KERNEL_S, SpeedProbe

WORKLOADS = ("grid-solve", "tree-lattice", "mc-verify", "mc-scalar")
COMMANDS = {"tree-lattice": "solve", "mc-verify": "verify", "mc-scalar": "simulate"}
LAYERS = ("esre", "matcore", "model", "config", "control", "regime_chain",
          "fbsde", "cli")

E1_VALUE = 0.5
CRITERION_01 = 1e-6          # |P(0) - closed form|
CRITERION_03 = 1e-7          # sup_t |P - oracle|_F
REPLAY_TOL = 1e-12           # tree: CLI answer vs the public sweep replay

END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("solve_s_tail", "s"),
    ("command_s", "s"), ("command_s_tail", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("esre.p0_s", "s"), ("esre.sweep_s", "s"), ("esre.sweeps", "count"),
    ("esre.rhs_us", "us"), ("esre.level_us", "us"), ("esre.oracle_s", "s"),
    ("esre.picard_over_oracle", "ratio"), ("esre.self_s", "s"),
    ("matcore.project_psd_s", "s"), ("matcore.project_psd_calls", "count"),
    ("matcore.sym_inverse_calls", "count"), ("matcore.self_s", "s"),
    ("model.sample_s", "s"), ("model.sample_calls", "count"),
    ("model.validate_s", "s"), ("model.self_s", "s"),
    ("config.parse_s", "s"),
    ("control.gain_s", "s"), ("control.mc_s", "s"), ("control.gap_s", "s"),
    ("control.step_s", "s"), ("control.paths", "count"),
    ("control.crn_var_ratio", "ratio"), ("control.self_s", "s"),
    ("regime_chain.substream_s", "s"), ("regime_chain.substream_calls", "count"),
    ("regime_chain.jumps_per_path", "count"), ("regime_chain.switch_frac", "ratio"),
    ("regime_chain.self_s", "s"),
    ("fbsde.ypx_s", "s"), ("fbsde.xinv_s", "s"), ("fbsde.tree_oracle_s", "s"),
    ("fbsde.self_s", "s"),
    ("cli.csv_write_s", "s"), ("cli.csv_bytes", "bytes"), ("cli.self_s", "s"),
    ("mc_paths_per_s", "1/s"), ("p0_err", "abs"), ("fail_frac", "ratio"),
    ("op_wall_s", "s"), ("unaccounted_s", "s"), ("trace_overhead_s", "s"),
)


def f17(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, sizes: inputs.Sizes, workdir: Path) -> dict:
    """Generate (and for CLI workloads write and parse) the inputs."""
    if workload == "grid-solve":
        return {"problems": inputs.grid_problems(seed)}
    path = inputs.write_config(workload, seed, sizes, workdir)
    return {"config": config.parse_config(path)}


def setup_once(workload, seed, sizes_name, root: Path, t_start: float) -> dict:
    """Set-up time of this process, raw and at reference speed;
    ``t_start`` was taken before the library was imported."""
    workdir = root / ".bench_work" / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe().start()
    try:
        prepare(workload, seed, inputs.SIZES[sizes_name], workdir)
        end = perf_counter()
        return {"raw": end - t_start, "scaled": probe.scale(t_start, end)}
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def setup_probes(workload, seed, sizes_name, count, root: Path) -> list:
    """``setup_once`` results of ``count`` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", workload, "--seed", str(seed), "--sizes", sizes_name,
             "--setup-only"],
            cwd=root, capture_output=True, text=True, timeout=150, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _grid_op(state, sizes, outdir):
    """One pass over e1 and the family; returns per-problem results."""
    results = []
    for name, spec in state["problems"]:
        steps = sizes.e1_steps if name == "e1" else sizes.family_steps
        opts = SolverOptions(grid_steps=steps)
        try:
            sol = esre.solve_esre(spec, opts)
            oracle = None if name == "e1" else esre.direct_coupled_oracle(spec, opts)
            control.feedback_gain(sol, spec)
            cli.write_solution_csv(sol, outdir / f"{name}.csv")
        except Exception as exc:         # a failed problem is counted, the run goes on
            results.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"name": name, "P": sol.P,
                        "ref": None if oracle is None else oracle.P})
    return results


def _cli_op(workload, state, outdir):
    lines = []
    try:
        code = cli.run_command(COMMANDS[workload], state["config"],
                               output_dir=outdir, echo=lines.append).exit_code
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "lines": lines}
    return {"exit": code, "lines": lines}


# ---------------------------------------------------------------------------
# references, checks and the answer record
# ---------------------------------------------------------------------------


def replay(spec, opts):
    """Run the fixed point through the public ``solve_p0`` + ``picard_step``
    (what ``solve_esre`` does internally), recording the intervals of the
    initial iterate and of every sweep."""
    t0 = perf_counter()
    prev = esre.solve_p0(spec, opts)
    p0 = (t0, perf_counter())
    sweeps = []
    for _ in range(opts.picard_max_iter):
        t0 = perf_counter()
        cur = esre.picard_step(spec, prev, opts)
        sweeps.append((t0, perf_counter()))
        pairs = ([(cur.values, prev.values)] if isinstance(cur, GridIterate)
                 else zip(cur.levels, prev.levels))
        res = max(float(np.max(np.linalg.norm(a - b, axis=(-2, -1)))) for a, b in pairs)
        prev = cur
        if res <= opts.picard_tol:
            break
    p_zero = prev.values[0] if isinstance(prev, GridIterate) else prev.levels[0][0]
    return {"p0": p0, "sweeps": sweeps, "P0": p_zero}


def replay_problems(workload, state, sizes):
    """(spec, options) of every problem a workload solves."""
    if workload == "grid-solve":
        return [(spec, SolverOptions(grid_steps=sizes.e1_steps if name == "e1"
                                     else sizes.family_steps))
                for name, spec in state["problems"]]
    cfg = state["config"]
    return [(cfg.problem, cfg.solver)]


def oracle_reference(state):
    """Direct-oracle solution of a Monte Carlo workload's problem."""
    cfg = state["config"]
    return esre.direct_coupled_oracle(cfg.problem, cfg.solver).P


def _sup_dist(p, ref):
    return float(np.max(np.linalg.norm(p - ref, axis=(-2, -1))))


def _p0_entries(p0):
    return [f17(x) for x in np.asarray(p0).ravel()]


def check_op(workload, op, state, reference, shift) -> tuple:
    """(attempted, failed, p0_err, answers, errors) of one operation.

    ``shift`` is added to every reference; the benchmark's tests set it to
    show that a wrong reference fails every operation.
    """
    errors = []
    answers = {}
    if workload == "grid-solve":
        failed, p0_err = 0, 0.0
        for r in op["results"]:
            if "error" in r:
                failed += 1
                errors.append(f"{r['name']}: {r['error']}")
                continue
            if r["ref"] is None:
                err = float(np.max(np.abs(r["P"][0] - (E1_VALUE + shift))))
                ok = err <= CRITERION_01
                why = f"criterion 01 error {err:.3e}"
            else:
                ref = r["ref"] + shift
                err = float(np.max(np.abs(r["P"][0] - ref[0])))
                dist = _sup_dist(r["P"], ref)
                ok = dist <= CRITERION_03
                why = f"criterion 03 distance {dist:.3e}"
            if not ok:
                errors.append(f"{r['name']}: {why}")
            failed += not ok
            p0_err = max(p0_err, err)
            answers[r["name"]] = _p0_entries(r["P"][0])
        return len(op["results"]), failed, p0_err, {"P0": answers}, errors

    if "error" in op:
        return 1, 1, 0.0, {"error": op["error"]}, [op["error"]]
    ok = op["exit"] == 0
    if not ok:
        errors.append(f"exit code {op['exit']}")
    sols = op["solutions"]
    p = sols[-1].P if sols else None
    if p is None:
        return 1, 1, 0.0, {"exit": op["exit"]}, errors + ["no solution captured"]
    answers["P0"] = _p0_entries(p[0])
    answers["exit"] = op["exit"]
    if workload == "tree-lattice":
        p0_err = float(np.max(np.abs(p[0] - (reference + shift))))
        if p0_err > REPLAY_TOL:
            ok = False
            errors.append(f"P(0) differs from the sweep replay by {p0_err:.3e}")
        return 1, int(not ok), p0_err, answers, errors

    ref = reference + shift
    p0_err = float(np.max(np.abs(p[0] - ref[0])))
    dist = _sup_dist(p, ref)
    if dist > CRITERION_03:
        ok = False
        errors.append(f"criterion 03 distance {dist:.3e}")
    mc = {}
    for name, est in op["estimates"]:
        if hasattr(est, "gap"):
            mc["gap"] = [f17(est.gap), f17(est.std_error)]
            mc["perturbed"] = [f17(est.perturbed.mean), f17(est.perturbed.std_error)]
        else:
            mc[name] = [f17(est.mean), f17(est.std_error)]
    answers["mc"] = mc
    if workload == "mc-verify":
        verdict = [ln for ln in op["lines"] if ln.startswith("result:")]
        answers["verify"] = verdict[-1] if verdict else "missing"
        if not verdict or not verdict[-1].startswith("result: PASS"):
            ok = False
            errors.append(f"verify verdict {answers['verify']!r}")
    else:
        cfg = state["config"]
        spec, sim = cfg.problem, cfg.simulate
        x0 = spec.x0
        value = float(x0 @ (ref[0, spec.i0 - 1]) @ x0)
        gap = control.predicted_gap(spec, sols[-1], sim.perturbations[0], spec.i0)
        for (name, est), target in zip(op["estimates"], (value, value + gap)):
            tol = max(3.0 * est.std_error, 0.01 * (1.0 + abs(target)))
            if abs(est.mean - target) > tol:
                ok = False
                errors.append(f"{name} cost {est.mean:.6g} vs {target:.6g} (tol {tol:.3g})")
    return 1, int(not ok), p0_err, answers, errors


def answer_hash(answers) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def run_ops(workload, state, sizes, seconds, tracer, outdir, traced: bool, checker):
    """Run operations for ``seconds``, each checked as soon as it ends.

    No operation starts that is expected (from the median so far) to end
    after ``seconds``, but at least one runs; with ``traced`` operations
    alternate plain / fully traced, starting plain, at least one of each.
    """
    ops = []
    walls = []
    start = perf_counter()
    while True:
        full = traced and len(ops) % 2 == 1
        tracer.install(FULL if full else CAPTURE)
        tracer.op = len(ops)
        rec = tracer.begin("op", "bench")
        try:
            if workload == "grid-solve":
                op = {"results": _grid_op(state, sizes, outdir)}
            else:
                op = _cli_op(workload, state, outdir)
        finally:
            tracer.end(rec)
            tracer.uninstall()
        spans = [s for s in tracer.spans if s[5] == tracer.op]
        solves = [s for s in spans if s[0] == "esre.solve_esre"]
        op.update(solutions=[s[6] for s in solves if s[6] is not None],
                  estimates=_estimates(spans))
        checker.add(op)
        for s in solves:                 # keep memory flat: the answers are recorded
            s[6] = None
        ops.append({"id": tracer.op, "traced": full, "interval": (rec[2], rec[3]),
                    "solve_intervals": [(s[2], s[3]) for s in solves]})
        walls.append(rec[3] - rec[2])
        elapsed = perf_counter() - start
        if len(ops) >= (2 if traced else 1) and elapsed + float(np.median(walls)) > seconds:
            return ops


class Checker:
    """Checks operations against the references and tallies the result."""

    def __init__(self, workload, state, reference, shift, errors):
        self.workload, self.state = workload, state
        self.reference, self.shift = reference, shift
        self.attempted = self.failed = 0
        self.p0_err = 0.0
        self.answers = None
        self.errors = list(errors)

    def add(self, op):
        if self.reference is None and self.workload != "grid-solve":
            self.attempted += 1
            self.failed += 1
            return
        a, f, err, ans, errs = check_op(self.workload, op, self.state,
                                        self.reference, self.shift)
        if self.answers is None:
            self.answers = ans
        elif ans != self.answers:
            f = a
            errs = errs + ["answers differ between operations"]
        self.attempted += a
        self.failed += f
        self.p0_err = max(self.p0_err, err)
        self.errors += [e for e in errs if e not in self.errors]


def _estimates(spans):
    """(label, estimate) of each Monte Carlo call, labelled like the CLI."""
    out = []
    k = 0
    for s in spans:
        if s[0] == "control.mc_cost" and s[6] is not None:
            out.append(("feedback" if k == 0 else f"perturbation[{k - 1}]", s[6]["result"]))
            k += 1
        elif s[0] == "control.optimality_gap" and s[6] is not None:
            out.append(("gap", s[6]["result"]))
    return out


def tail(values):
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it.  Below 20 samples no percentile above the median
    qualifies, and the maximum is reported as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def machine_facts() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "regimelq": regimelq.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced operations
# ---------------------------------------------------------------------------


def layer_metrics(tracer, probe, ops, replays, fail_frac, p0_err) -> dict:
    """Per-operation means over the traced operations; times are scaled by
    the operation's speed factor, like the end-to-end times."""
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    spans = tracer.spans
    selfs = tracer.self_seconds()
    by_op = {}
    for i, s in enumerate(spans):
        by_op.setdefault(s[5], []).append(i)
    factor = {op["id"]: probe.factor(*op["interval"]) for op in traced}

    def per_op(fn, timed=True):
        return float(np.mean([fn(by_op[op["id"]]) * (factor[op["id"]] if timed else 1.0)
                              for op in traced]))

    def dur(*names):
        return lambda idx: sum(spans[i][3] - spans[i][2] for i in idx if spans[i][0] in names)

    def own(*names):
        return lambda idx: sum(selfs[i] for i in idx if spans[i][0] in names)

    def calls(name):
        return lambda idx: sum(1 for i in idx if spans[i][0] == name)

    def layer(name):
        return lambda idx: sum(selfs[i] for i in idx if spans[i][1] == name)

    def data(name):
        return [spans[i][6] for op in traced for i in by_op[op["id"]]
                if spans[i][0] == name and spans[i][6] is not None]

    def paired_solve(idx):
        """Solve time of the problems that also ran the oracle."""
        total = last = 0.0
        for i in idx:
            if spans[i][0] == "esre.solve_esre":
                last = spans[i][3] - spans[i][2]
            elif spans[i][0] == "esre.direct_coupled_oracle":
                total += last
        return total

    m = {}
    sweep_t = [sum(probe.scale(*iv) for iv in r["sweeps"]) for r in replays]
    sweeps = sum(len(r["sweeps"]) for r in replays)
    grid_units = sum(len(r["sweeps"]) * (4 * r["steps"] + 1) for r in replays if r["grid"])
    tree_units = sum(len(r["sweeps"]) * r["steps"] for r in replays if not r["grid"])
    grid_t = sum(t for t, r in zip(sweep_t, replays) if r["grid"])
    tree_t = sum(t for t, r in zip(sweep_t, replays) if not r["grid"])
    m["esre.p0_s"] = sum(probe.scale(*r["p0"]) for r in replays)
    m["esre.sweep_s"] = sum(sweep_t) / sweeps
    m["esre.sweeps"] = sweeps
    m["esre.rhs_us"] = 1e6 * grid_t / grid_units if grid_units else 0.0
    m["esre.level_us"] = 1e6 * tree_t / tree_units if tree_units else 0.0
    oracle = per_op(dur("esre.direct_coupled_oracle"))
    m["esre.oracle_s"] = oracle
    m["esre.picard_over_oracle"] = per_op(paired_solve) / oracle if oracle else 0.0
    m["matcore.project_psd_s"] = per_op(own("matcore.project_psd"))
    m["matcore.project_psd_calls"] = per_op(calls("matcore.project_psd"), False)
    m["matcore.sym_inverse_calls"] = per_op(calls("matcore.sym_inverse"), False)
    m["model.sample_s"] = per_op(dur("model.sample_times"))
    m["model.sample_calls"] = per_op(calls("model.sample_times"), False)
    m["model.validate_s"] = per_op(dur("model.validate_assumptions"))
    m["config.parse_s"] = sum(probe.scale(spans[i][2], spans[i][3])
                              for i in by_op.get("setup", [])
                              if spans[i][0] == "config.parse_config")
    m["control.gain_s"] = per_op(dur("control.feedback_gain"))
    m["control.mc_s"] = per_op(dur("control.mc_cost"))
    m["control.gap_s"] = per_op(dur("control.optimality_gap"))
    m["control.step_s"] = per_op(own("control.mc_cost", "control.optimality_gap"))
    mc_paths = [d["paths"] for d in data("control.mc_cost") + data("control.optimality_gap")]
    m["control.paths"] = float(sum(mc_paths)) / len(traced)
    gaps = [d["result"] for d in data("control.optimality_gap")]
    m["control.crn_var_ratio"] = (float(np.mean([(g.perturbed.std_error / g.std_error) ** 2
                                                 for g in gaps if g.std_error > 0]))
                                  if gaps else 0.0)
    jumps = np.asarray(data("regime_chain.sample_jumps"))
    m["regime_chain.substream_s"] = per_op(own("regime_chain.path_substream"))
    m["regime_chain.substream_calls"] = per_op(calls("regime_chain.path_substream"), False)
    m["regime_chain.jumps_per_path"] = float(jumps.mean()) if jumps.size else 0.0
    m["regime_chain.switch_frac"] = float((jumps > 0).mean()) if jumps.size else 0.0
    m["fbsde.ypx_s"] = per_op(dur("fbsde.ypx_residual"))
    m["fbsde.xinv_s"] = per_op(dur("fbsde.xinv_product_check"))
    m["fbsde.tree_oracle_s"] = per_op(dur("fbsde.tree_fbsde_oracle"))
    m["cli.csv_write_s"] = per_op(dur("cli.write_solution_csv"))
    m["cli.csv_bytes"] = float(sum(data("cli.write_solution_csv"))) / len(traced)
    for name in LAYERS:
        if name != "config":
            m[f"{name}.self_s"] = per_op(layer(name))
    mc_t = per_op(dur("control.mc_cost", "control.optimality_gap"))
    m["mc_paths_per_s"] = m["control.paths"] / mc_t if mc_t else 0.0
    m["p0_err"] = p0_err
    m["fail_frac"] = fail_frac
    m["op_wall_s"] = float(np.mean([probe.scale(*op["interval"]) for op in traced]))
    m["unaccounted_s"] = per_op(layer("bench"))
    m["trace_overhead_s"] = m["op_wall_s"] - float(
        np.mean([probe.scale(*op["interval"]) for op in plain]))
    return m


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace, sizes_name, root: Path, t_start: float,
        shift: float = 0.0) -> dict:
    """Set up, measure, check.  Returns the facts, the answer record and
    the result object."""
    sizes = inputs.SIZES[sizes_name]
    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe().start()
    tracer = Tracer()
    try:
        if trace:
            tracer.install(FULL)
        tracer.op = "setup"
        state = prepare(workload, seed, sizes, workdir)
        setup_end = perf_counter()
        setup_raw = [setup_end - t_start]
        tracer.uninstall()
        setup = []
        if not trace:
            probe.pause()
            for child in setup_probes(workload, seed, sizes_name,
                                      sizes.setup_samples - 1, root):
                setup_raw.append(child["raw"])
                setup.append(child["scaled"])
            probe.resume()

        # the sweep replay and the references, before the timed operations
        replays = []
        problems = []
        if trace or workload == "tree-lattice":
            if trace:
                tracer.install(FULL)
            tracer.op = "replay"
            try:
                for spec, opts in replay_problems(workload, state, sizes):
                    r = replay(spec, opts)
                    r.update(grid=opts.backend == "ode", steps=opts.grid_steps
                             if opts.backend == "ode" else opts.tree_depth)
                    replays.append(r)
            except Exception as exc:     # reported; the operations then fail their check
                problems.append(f"sweep replay failed: {type(exc).__name__}: {exc}")
            tracer.uninstall()
        reference = None
        try:
            if workload == "tree-lattice":
                reference = replays[0]["P0"] if replays else None
            elif workload != "grid-solve":
                reference = oracle_reference(state)
        except Exception as exc:
            problems.append(f"reference failed: {type(exc).__name__}: {exc}")

        outdir = workdir / "out"
        outdir.mkdir(exist_ok=True)
        checker = Checker(workload, state, reference, shift, problems)
        ops = run_ops(workload, state, sizes, seconds, tracer, outdir, bool(trace), checker)
        probe.stop()
        attempted, failed, p0_err = checker.attempted, checker.failed, checker.p0_err
        errors, answers = checker.errors, checker.answers

        facts = {"workload": workload, "seed": seed, "trace": int(trace),
                 "sizes": dict(sizes.__dict__, name=sizes_name),
                 **machine_facts(), "ops": len(ops),
                 "speed": {"kernel_median_s": probe.kernel_median(),
                           "nominal_kernel_s": NOMINAL_KERNEL_S,
                           "samples": len(probe.samples)}}
        if workload == "grid-solve":
            facts["family_seeds"] = [inputs.member_seed(seed, k)
                                     for k in range(len(inputs.FAMILY_SHAPES))]
        elif workload == "tree-lattice":
            facts["tree_seed"] = inputs.member_seed(seed, inputs.TREE_SLOT)
        else:
            sim = state["config"].simulate
            facts.update(mc_master_seed=sim.seed, mc_paths=sim.n_paths, mc_dt=sim.dt,
                         mc_steps=round(state["config"].problem.T / sim.dt))
        facts.update(fail_frac=failed / attempted, p0_err=p0_err)
        if trace:
            metrics = layer_metrics(tracer, probe, ops, replays, failed / attempted, p0_err)
            units = dict(PER_LAYER)
            tracer.write(root / ".bench_work" / f"trace-{workload}-seed{seed}.json")
        else:
            solve_raw = [sum(e - s for s, e in op["solve_intervals"]) for op in ops]
            wall_raw = [op["interval"][1] - op["interval"][0] for op in ops]
            solve = [sum(probe.scale(s, e) for s, e in op["solve_intervals"]) for op in ops]
            wall = [probe.scale(*op["interval"]) for op in ops]
            solve_tail, wall_tail = tail(solve), tail(wall)
            facts["tails"] = {
                "solve_s_tail": {"percentile": solve_tail[1], "n": solve_tail[2]},
                "command_s_tail": {"percentile": wall_tail[1], "n": wall_tail[2]},
            }
            facts["raw_wall_s"] = {"setup": setup_raw, "solve": solve_raw, "command": wall_raw}
            setup.append(probe.scale(t_start, setup_end))
            metrics = {
                "setup_s": float(np.median(setup)),
                "solve_s": float(np.median(solve)), "solve_s_tail": solve_tail[0],
                "command_s": float(np.median(wall)), "command_s_tail": wall_tail[0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        facts["errors"] = errors[:10]
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        return {"facts": facts, "answers": {"answers": answers, "hash": answer_hash(answers)},
                "result": result}
    finally:
        probe.stop()
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
