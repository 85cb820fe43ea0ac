"""End-to-end benchmark of the ``seqineq`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload subadd-large --seed 1 --seconds 30 --trace 0

One client drives a closed loop: each job is a fresh ``python -m
seqineq.cli ...`` process on an input file generated from ``--seed``, and the
next job starts when the previous one has exited.  A *pass* runs the
workload's fixed job list once; passes repeat while another one fits in
``--seconds`` (at least one runs).  Every job's output is checked off the
clock after its pass (see ``checks.py``).  End-to-end times are wall times
scaled by a machine-speed calibration measured between the jobs (see
``CALIBRATION_EVERY``); the unscaled figures are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one pass through ``shim.py``, which records spans around
every layer call, and reports the per-layer metrics (see ``layers.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, list failed jobs, and print the environment and the
``results_digest``.  The program is run from ``src/`` of the checkout; the
command exits 2 without a result when that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 9
INTERP_REPS = 5
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 150.0

# Machine-speed calibration.  A fixed task that runs none of the program's
# code (interpreter start, numpy import, allocation with JSON encoding, a
# pure-Python loop) runs before every CALIBRATION_EVERY-th job and after the
# last.  Each timed child's wall time is scaled by CALIBRATION_NOMINAL_S over
# the median wall time of the CALIBRATION_NEIGHBOURS calibration runs nearest
# to it, so the end-to-end times read as seconds on a machine that runs the
# calibration task in 0.2 s.  On a shared VM the CPU speed drifts by tens of
# percent over minutes; unscaled, that drift alone would exceed the bounds.
CALIBRATION_EVERY = 4
CALIBRATION_NEIGHBOURS = 3
CALIBRATION_NOMINAL_S = 0.2
CALIBRATION_CODE = """
import json, numpy
text = json.dumps([(i, i * 0.5, str(i)) for i in range(60000)])
s = 0
for i in range(150000):
    s += i * i % 7
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class JobRun:
    wall: float
    exit_code: int
    maxrss_kb: int
    stdout_bytes: int
    scale: float = 1.0


@dataclass
class Pass:
    traced: bool
    runs: list[JobRun]
    outcomes: list[checks.Outcome]
    digest: str
    traces: list[dict]
    probes: dict[str, list[tuple[float, float]]]  # name -> [(wall, scale)]
    calibration: list[float]
    elapsed: float  # from the first child's start to the last one's end

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.runs)

    @property
    def scaled_wall(self) -> float:
        return sum(r.wall * r.scale for r in self.runs)


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path, env: dict) -> tuple[float, int, int]:
    """Run one process to completion; returns wall seconds, exit code and peak RSS in KiB."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def child_env() -> dict:
    # One BLAS thread: numpy otherwise starts a thread per core at import,
    # and on a small shared machine that start-up time swings with whatever
    # else holds the other cores.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(SRC)
    return env


def _local_scales(timeline: list[tuple[str, float]]) -> list[float]:
    """Per timeline entry, the nominal calibration time over the local median one."""
    cal = [(i, wall) for i, (name, wall) in enumerate(timeline) if name == "calibration"]
    if not cal:
        return [1.0] * len(timeline)
    scales = []
    for i in range(len(timeline)):
        near = sorted(cal, key=lambda c: abs(c[0] - i))[:CALIBRATION_NEIGHBOURS]
        scales.append(CALIBRATION_NOMINAL_S / statistics.median(wall for _, wall in near))
    return scales


def run_pass(
    jobs, inputs_dir: Path, pass_dir: Path, env: dict, traced: bool, validator, probes: dict, calibrate: bool
) -> Pass:
    """Run every job once, then check the outputs.

    ``probes`` maps a name to ``(argv, count)``: each probe command runs
    ``count`` times spread evenly between the jobs, so that its timings
    sample the same stretch of machine time as the jobs; probe times are not
    part of the pass.  With ``calibrate``, the calibration task runs between
    the jobs too and every job and probe gets its local scale.
    """
    slots: dict[int, list[str]] = {}
    for name, (_, count) in probes.items():
        for i in range(count):
            slots.setdefault(int((i + 0.5) * len(jobs) / count), []).append(name)
    calibration_argv = [sys.executable, "-c", CALIBRATION_CODE]
    dirs = []
    for k in range(len(jobs)):
        out_dir = pass_dir / f"{k:03d}"
        out_dir.mkdir(parents=True)
        dirs.append(out_dir)

    def probe(name: str, argv: list[str]) -> None:
        wall, code, _ = run_child(argv, pass_dir / "probe.out", pass_dir / "probe.err", env)
        if code != 0:
            raise RuntimeError(f"{name} probe exited {code}")
        timeline.append((name, wall))

    timeline: list[tuple[str, float]] = []
    runs = []
    start = time.perf_counter()
    for k, (job, out_dir) in enumerate(zip(jobs, dirs)):
        if calibrate and k % CALIBRATION_EVERY == 0:
            probe("calibration", calibration_argv)
        for name in slots.get(k, ()):
            probe(name, probes[name][0])
        cli_args = job.argv(str(inputs_dir / job.input.filename), str(out_dir))
        if traced:
            argv = [sys.executable, str(HERE / "shim.py"), str(out_dir / "trace.json"), *cli_args]
        else:
            argv = [sys.executable, "-m", "seqineq.cli", *cli_args]
        wall, code, rss = run_child(argv, out_dir / "stdout", out_dir / "stderr", env)
        runs.append(JobRun(wall, code, rss, (out_dir / "stdout").stat().st_size))
        timeline.append(("job", wall))
    if calibrate:
        probe("calibration", calibration_argv)
    elapsed = time.perf_counter() - start

    scales = _local_scales(timeline)
    probe_walls: dict[str, list[tuple[float, float]]] = {name: [] for name in probes}
    job_runs = iter(runs)
    for (name, wall), scale in zip(timeline, scales):
        if name == "job":
            next(job_runs).scale = scale
        elif name != "calibration":
            probe_walls[name].append((wall, scale))
    calibration = [wall for name, wall in timeline if name == "calibration"]

    outcomes, traces = [], []
    for job, run, out_dir in zip(jobs, runs, dirs):
        stdout = (out_dir / "stdout").read_text()
        stderr = (out_dir / "stderr").read_text()
        outcomes.append(checks.check_job(job, run.exit_code, stdout, stderr, str(out_dir), validator))
        if traced:
            traces.append(json.loads((out_dir / "trace.json").read_text()))
    checks.cross_check(jobs, outcomes)
    result = Pass(traced, runs, outcomes, checks.digest(jobs, outcomes), traces, probe_walls, calibration, elapsed)
    shutil.rmtree(pass_dir)
    return result


def load_validator():
    """Schema validator for reports, or None when jsonschema is not installed."""
    try:
        import jsonschema
    except ImportError:
        return None
    sys.path.insert(0, str(SRC))
    from seqineq.cli import load_report_schema

    return jsonschema.Draft202012Validator(load_report_schema())


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() if git.returncode == 0 else "none (not a git checkout)"
    except OSError:
        commit = "none (git not found)"
    source = hashlib.sha256()
    for path in sorted((SRC / "seqineq").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND jobs above it, and its percentile."""
    ordered = sorted(walls)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqineq" / "cli.py").is_file():
        print(f"perfbench: program sources not found at {SRC / 'seqineq'}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs_dir = work / "inputs"
        inputs_dir.mkdir()
        inputs = {job.input.filename: job.input for job in jobs}
        inputs_hash = hashlib.sha256()
        for name in sorted(inputs):
            text = inputs[name].text()
            (inputs_dir / name).write_text(text)
            inputs_hash.update(name.encode() + b"\0" + text.encode())

        env = child_env()
        validator = load_validator()
        help_argv = [sys.executable, "-m", "seqineq.cli", "--help"]
        # The first start compiles bytecode into src/; only warm starts are timed.
        run_child(help_argv, work / "help.out", work / "help.err", env)

        passes: list[Pass] = []
        if args.trace:
            for k, traced in enumerate((False, True)):
                probes = {"interp": ([sys.executable, "-c", "pass"], INTERP_REPS)} if traced else {}
                passes.append(run_pass(jobs, inputs_dir, work / f"pass{k}", env, traced, validator, probes, False))
        else:
            measured = 0.0
            while True:
                probes = {} if passes else {"setup": (help_argv, SETUP_REPS)}
                p = run_pass(jobs, inputs_dir, work / f"pass{len(passes)}", env, False, validator, probes, True)
                passes.append(p)
                measured += p.elapsed
                if measured + statistics.median(q.elapsed for q in passes) > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_info = environment(args.seed)
    untraced = [p for p in passes if not p.traced]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"jobs/pass={len(jobs)} passes={len(passes)} (closed loop, 1 client, 1 child at a time)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"inputs {len(inputs)} files sha256={inputs_hash.hexdigest()[:16]}")

    attempted = sum(len(p.runs) for p in passes)
    failed = 0
    wrong = False
    for number, p in enumerate(passes):
        for job, run, outcome in zip(jobs, p.runs, p.outcomes):
            if outcome.status == "ok":
                for note in outcome.notes:
                    print(f"note pass={number} {job.id}: {note}")
                continue
            failed += 1
            wrong |= outcome.status == "wrong"
            print(f"FAILED pass={number} workload={args.workload} family={job.input.family} N={job.n} "
                f"command={job.kind} format={job.out_format} exit={run.exit_code} {outcome.status}: {outcome.reason}")
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        print("results differ between passes: " + ", ".join(p.digest[:16] for p in passes))
        wrong = True
    base_failed = sum(o.status != "ok" for o in untraced[0].outcomes)
    print(f"failed_ratio {base_failed / len(jobs)!r} ({base_failed} of {len(jobs)} jobs in pass 0)")
    print(f"results_digest {passes[0].digest}")

    if args.trace:
        untraced_pass, traced_pass = passes
        interp = statistics.median(wall for wall, _ in traced_pass.probes["interp"])
        ok = [o.status == "ok" for o in traced_pass.outcomes]
        metrics = layers.per_layer(
            jobs,
            traced_pass.traces,
            [r.wall for r in traced_pass.runs],
            [r.stdout_bytes for r in traced_pass.runs],
            ok,
            traced_pass.wall,
            untraced_pass.wall,
            interp,
        )
        missing = sorted({name for t in traced_pass.traces for name in t["missing"]})
        if missing:
            print("untraced (names not found in the program): " + ", ".join(missing))
        print(f"interpreter start {interp!r} s (excluded from bench.span_residual_s)")
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        job_walls = [[r.wall * r.scale for r in p.runs] for p in untraced]
        tails = [tail(walls) for walls in job_walls]
        metrics = {
            "setup_s": statistics.median(wall * scale for wall, scale in untraced[0].probes["setup"]),
            "wall_s": statistics.median(p.scaled_wall for p in untraced),
            "job_p50_s": statistics.median(statistics.median(walls) for walls in job_walls),
            "job_tail_s": statistics.median(value for value, _ in tails),
            "peak_rss_mb": max(r.maxrss_kb for p in untraced for r in p.runs) / 1024.0,
        }
        raw_walls = [[r.wall for r in p.runs] for p in untraced]
        raw = {
            "setup_s": statistics.median(wall for wall, _ in untraced[0].probes["setup"]),
            "wall_s": statistics.median(p.wall for p in untraced),
            "job_p50_s": statistics.median(statistics.median(walls) for walls in raw_walls),
            "job_tail_s": statistics.median(tail(walls)[0] for walls in raw_walls),
        }
        calibration = statistics.median(w for p in untraced for w in p.calibration)
        print(f"job_tail_s is p{tails[0][1]:.1f} of {len(jobs)} jobs per pass ({TAIL_BEYOND} jobs beyond it)")
        print(f"calibration task median {calibration!r} s (nominal {CALIBRATION_NOMINAL_S} s); unscaled "
              + " ".join(f"{k}={v!r}" for k, v in raw.items()))
        print("pass walls (scaled) " + " ".join(f"{p.scaled_wall:.3f}" for p in untraced) + " s")
        units = END_TO_END

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
