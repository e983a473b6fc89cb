"""End-to-end benchmark of `empeq`, one seeded workload per run.

    python3 perfbench/run.py --workload paper-corpus --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One process and one thread (BLAS pinned to one thread) run a
closed loop: each op is one CLI subcommand run in-process through
`empeq.cli.run`, or one API call, on a game loaded fresh from its file or
corpus name.  No (game, op) pair repeats within a run.  Every op's output
goes through an independent check (`checks.py`); an op fails if it raises,
exits with code 2, passes its deadline, or fails its check.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the ops run under the wrappers of `tracing.py` and the line
holds the per-layer metrics.  A full record of the run (inputs and outputs
digests, every op, every failure, the verdict tally) goes to
`.perfbench_run/records/`.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Per-op deadline in wall seconds, set in the gap between the slowest op
# that passes and the fastest op that fails at seed: paper-corpus ops stay
# under 6 s; random-generic ops take at most 2 s, or 6 s and more when a
# membership search runs long.  Traced runs get twice as long.
DEADLINE_S = {"paper-corpus": 15.0, "random-generic": 4.0, "logit-path": 15.0}
TRACED_FACTOR = 2.0
SETUP_PROBES = 2  # extra cold set-ups per run, for the setup_s median
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # keep for confirming a claim on unseen inputs

API_LAYER = {
    "vanishing_sequence": "ccost", "build_spline": "ccost",
    "cc_equilibrium_check": "ccost", "qre_fixed_point": "qre",
    "spline_qrf_fixed_point": "qre", "empirical_membership": "empirical",
}


class Deadline(BaseException):
    """Raised into the running op by the interval timer."""


@dataclass
class Result:
    passed: bool
    output: str | None = None
    value: object = None


def load_program():
    src = ROOT / "src"
    if not (src / "empeq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'empeq'}")
    sys.path.insert(0, str(src))
    import empeq
    import empeq.cli

    if Path(empeq.__file__).resolve().parent != (src / "empeq").resolve():
        raise SystemExit(f"perfbench: empeq was imported from {empeq.__file__}")
    return empeq


def innermost_layer(tb, package_dir):
    layer = None
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == package_dir:
            layer = path.stem
        tb = tb.tb_next
    return layer


class Runner:
    """Runs one op under a deadline, checks it and records the outcome."""

    def __init__(self, empeq, deadline, tracer=None, probe=None):
        self.cli_run = empeq.cli.run
        self.package_dir = Path(empeq.__file__).resolve().parent
        self.deadline = deadline
        self.tracer = tracer
        self.probe = probe  # takes reference slices inside the op
        self.count = 0
        self._deadline_at = float("inf")
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if time.perf_counter() >= self._deadline_at:
            raise Deadline()
        if self.probe is not None:
            self.probe.inside_tick()

    def execute(self, op):
        rec = {"id": self.count, "game": op.game, "op": op.name, "kind": op.kind}
        self.count += 1
        if self.tracer is not None:
            self.tracer.current_op = rec["id"]
        span = (self.tracer.span("op:" + op.name.split()[0]) if self.tracer
                else contextlib.nullcontext())
        out, err = io.StringIO(), io.StringIO()
        code = value = None
        error = None
        slices_s = 0.0
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if self.probe is not None:
                self.probe.start_op(rec["id"])
            self._deadline_at = t0 + self.deadline
            tick = min(speed.SLICE_EVERY_S, self.deadline)
            signal.setitimer(signal.ITIMER_REAL, tick, tick)
            try:
                with span:
                    if op.kind == "cli":
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = self.cli_run(op.argv)
                    else:
                        value = op.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if self.probe is not None:
                    slices_s = self.probe.end_op()
        except Deadline as exc:
            error = ("deadline", exc)
        except Exception as exc:  # the op's failure is what is being measured
            error = (type(exc).__name__ + ": " + str(exc)[:200], exc)
        rec["cpu_s"] = time.process_time() - c0 - slices_s
        rec["wall_s"] = time.perf_counter() - t0
        layer = "cli" if op.kind == "cli" else API_LAYER[op.name]
        if error is not None:
            inner = innermost_layer(error[1].__traceback__, self.package_dir)
            return self._failed(rec, error[0], inner or layer), Result(False)
        if op.kind == "cli":
            text = out.getvalue()
            rec["exit_code"] = code
            rec["output_bytes"] = len(text.encode("utf-8"))
            if code == 2:
                reason = "exit code 2: " + err.getvalue().strip()[:200]
                return self._failed(rec, reason, layer), Result(False)
            check_args = (text, code)
        else:
            text = op.render(value)
            check_args = (value,)
        rec["output_sha256"] = stats.digest(text)
        try:
            rec["tally"] = op.check(*check_args)
        except checks.CheckFailed as exc:
            return self._failed(rec, f"check: {exc}", layer, wrong=True), Result(False)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"check: malformed output ({type(exc).__name__}: {exc})"
            return self._failed(rec, reason, layer, wrong=True), Result(False)
        rec["status"] = "passed"
        return rec, Result(True, text, value)

    @staticmethod
    def _failed(rec, reason, layer, wrong=False):
        rec.update(status="failed", reason=reason, layer=layer, wrong_output=wrong)
        return rec


def run_games(runner, factories, probe=None, seconds=None):
    """Closed loop over the games' op generators.

    With a `speed.Probe`, reference slices run before the first op, between
    ops and after the last one, and the loop stops starting ops once the
    ops have used `seconds` of reference-scaled CPU time.  Returns the op
    records and whether every game ran to its end.
    """
    records = []
    if probe is not None:
        probe.sample(0)
    finished = _loop(runner, factories, probe, seconds, records)
    if probe is not None:
        probe.sample(len(records))
    return records, finished


def _loop(runner, factories, probe, seconds, records):
    used = 0.0
    for factory in factories:
        gen = factory()
        result = None
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                break
            if probe is not None and used >= seconds:
                return False
            rec, result = runner.execute(op)
            records.append(rec)
            if probe is not None:
                used += rec["cpu_s"] * probe.current_factor()
                probe.maybe_sample(len(records))
    return True


def deadline_for(args):
    return DEADLINE_S[args.workload] * (TRACED_FACTOR if args.trace else 1.0)


def set_up(args, workdir):
    empeq = load_program()
    workdir.mkdir(parents=True, exist_ok=True)
    files = workloads.Files(workdir, {})
    workload = workloads.BUILDERS[args.workload](args.seed, files)
    warm = Runner(empeq, deadline_for(args))
    warmup, _ = run_games(warm, workload.warmup)
    return empeq, workload, warmup


def probe_setup(args):
    """Cold set-ups in fresh processes; returns their setup seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_info(args, empeq, deadline):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": deadline,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "empeq": getattr(empeq, "__version__", None),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(ops, deadline, setups, tally):
    """End-to-end metrics; op times must already carry "ref_s" (see speed.py)."""
    passed = [op for op in ops if op["status"] == "passed"]
    latencies = stats.op_latencies(ops, deadline)
    busy = sum(op["ref_s"] for op in ops)
    tail, pct, n = stats.tail(latencies)
    decided, issued = checks.decided_counts(tally)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(passed) / busy, "ops/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (tail, "s"),
        "passed_share": (len(passed) / len(ops), "ratio"),
        "decided_share": (decided / issued if issued else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"op_s.tail": {"percentile": pct, "ops": n, "beyond": stats.TAIL_BEYOND},
              "busy_s": busy, "verdicts_decided": decided, "verdicts_issued": issued}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the setup time and exit")
    args = parser.parse_args(argv)

    run_dir = ROOT / ".perfbench_run"
    workdir = run_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        empeq, workload, warmup = set_up(args, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        deadline = deadline_for(args)
        tracer = None
        if args.trace:
            per_span = tracing.wrapper_cost()
            tracer = tracing.Tracer()
            tracer.install(empeq)
        probe = speed.Probe()
        # slices inside ops would land inside the traced spans
        runner = Runner(empeq, deadline, tracer, None if tracer else probe)
        try:
            ops, finished = run_games(runner, workload.games, probe, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setups = [setup_s] + probe_setup(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not ops:
        raise SystemExit("perfbench: no op finished inside the window")

    for op, factor in zip(ops, probe.factors(len(ops))):
        op["ref_s"] = op["cpu_s"] * factor
    tally = Counter()
    for op in ops:
        tally.update(op.pop("tally", {}))
    failures = [{k: op[k] for k in ("id", "game", "op", "layer", "reason")}
                for op in ops if op["status"] == "failed"]
    if args.trace:
        values = tracing.layer_metrics(tracer, ops, per_span)
        metrics = {k: (values[k], unit) for k, unit in tracing.METRICS.items()}
        detail = {"wrapper_cost_s": per_span}
    else:
        metrics, detail = end_to_end(ops, deadline, setups, tally)

    records = run_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(records / f"{stem}-spans.npz")
    record = {
        "run": run_info(args, empeq, deadline),
        "setup_s": setups,
        "inputs_sha256": stats.digest(json.dumps(sorted(workload.inputs.items()))),
        "inputs": workload.inputs,
        "all_games_done": finished,
        "reference_slices_s": [s for _, s, _ in probe.samples],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "verdicts": dict(sorted(tally.items())),
        "failures": failures,
        "warmup": [{k: op.get(k) for k in ("op", "status", "wall_s")} for op in warmup],
        "ops": ops,
    }
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    wrong = sum(op.get("wrong_output", False) for op in ops)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{len(failures)} failed, {wrong} wrong outputs; record in "
          f"{records / (stem + '.json')}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
