"""Benchmark of the orbicurves command-line tool.

    python3 bench/run.py --workload sweep|germ|chains|scan|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Each workload is a seeded job list (a round) of CLI calls; see gen.py
for what each workload generates and why.  The loop is closed with one
client: one job runs at a time, as a subprocess
``python -m orbicurves.cli ...`` with ``src/`` on the path, and the next
starts when it exits.  Rounds repeat until --seconds have passed and at
least MIN_JOBS jobs ran, so that ten jobs lie beyond the pooled 90th
percentile.  Outputs are checked against references after each round,
outside the timed region.

--trace 0 reports the end-to-end metrics:
    wall_s       median over rounds of the time to run the job list (the
                 sum of its jobs' wall times)
    cpu_s        median over rounds of the jobs' user+sys time
    job_s.p50    median per-job wall time, pooled over the run
    job_s.p90    90th-percentile per-job wall time, pooled over the run
    fail_ratio   failed jobs over attempted jobs (printed, and carried by
                 the "failed" and "attempted" fields of the result)
    peak_rss_mb  highest max-RSS of any job subprocess
    setup_s      median wall time of ``orbicurves --help``: interpreter
                 start, package import and parser build, which every
                 command pays

The machine's speed swings by tens of percent within seconds (other
tenants share it), which no amount of work in one run averages out.  So
a fixed pure-Python probe (probe.py) runs before every set-up sample,
every PROBE_EVERY jobs and at the end, and every time above is reported
at the reference speed: each measured time is multiplied by PROBE_REF_S
over the mean of the probe times just before and just after it.  The
raw times and the probe median are printed too, and every measured time
is written to bench/_out/run-<workload>-<seed>.json.

--trace 1 runs the same round in-process through orbicurves.cli.main,
alternating an untraced round and a traced round (see tracer.py) until
--seconds have passed, and reports the per-layer metrics of LAYER_MAP:
per-round call counts, self and total times (medians over the traced
rounds, not scaled), work counts, and each module's self time; each
module's share of the traced self time is printed.  The spans of the
first traced round go to bench/_out/.  The difference between the
traced and the untraced round is printed as the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Human-readable lines before it
give the run metadata and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

WORK = BENCH / "_work"
OUT = BENCH / "_out"
SETUP_SAMPLES = 7
SMOKE_SETUP_SAMPLES = 3
MIN_JOBS = 100
HARD_LIMIT_S = 120.0
CLI = (sys.executable, "-m", "orbicurves.cli")
PROBE = (sys.executable, "bench/probe.py")
PROBE_EVERY = 4  # jobs between two speed probes
PROBE_REF_S = 0.1  # probe wall time at the reference speed


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int


# --- subprocess jobs --------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


class Launcher:
    """The process that forks and times the CLI jobs (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            cwd=ROOT,
            env=_cli_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd, out_path: Path) -> Sample:
        self.proc.stdin.write(json.dumps({"cmd": list(cmd), "out": str(out_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited")
        return Sample(**json.loads(line))


def measure(jobs, setup_samples: int, seconds: float, min_jobs: int, work: Path, launcher: Launcher):
    """Set-up samples (``orbicurves --help``), then rounds of the job list
    until --seconds have passed and min_jobs jobs ran, with a speed probe
    before every set-up sample, every PROBE_EVERY jobs and at the end.

    Returns the event list, each ["probe", wall], ["setup", wall] or
    ["job", round, index, wall, cpu, rss_mb], in order, and the failed
    checks.  Outputs are checked after each round, between timed jobs."""
    events, failures = [], []

    def probe():
        s = launcher.run(PROBE, work / "probe.out")
        events.append(["probe", s.wall])
        if s.code != 0:
            raise RuntimeError(f"the speed probe exited with code {s.code}")

    setup_out = work / "setup.out"
    launcher.run([*CLI, "--help"], setup_out)  # warm the bytecode cache
    for _ in range(setup_samples):
        probe()
        s = launcher.run([*CLI, "--help"], setup_out)
        events.append(["setup", s.wall])
        if s.code != 0 or not setup_out.read_text().startswith("usage: orbicurves"):
            failures.append(f"--help: exit code {s.code} or no usage text")
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    done, rnd, start = 0, 0, time.perf_counter()
    while True:
        codes = []
        for i, job in enumerate(jobs):
            if done % PROBE_EVERY == 0:
                probe()
            s = launcher.run([*CLI, *job.argv], out_dir / f"{i}.out")
            events.append(["job", rnd, i, s.wall, s.cpu, s.rss_mb])
            codes.append(s.code)
            done += 1
        for i, (job, code) in enumerate(zip(jobs, codes)):
            text = (out_dir / f"{i}.out").read_text(encoding="utf-8") if code == 0 else ""
            reason = check.check(job, code, text)
            if reason:
                failures.append(f"{' '.join(job.argv)}: {reason}")
        rnd += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and done >= min_jobs):
            break
    probe()
    return events, failures


def local_speed(events) -> list:
    """Per event, PROBE_REF_S over the mean of the probes just before and
    just after it: the factor that brings its time to the reference
    speed."""
    before, after = [None] * len(events), [None] * len(events)
    last = None
    for i, e in enumerate(events):
        if e[0] == "probe":
            last = e[1]
        before[i] = last
    last = None
    for i in range(len(events) - 1, -1, -1):
        if events[i][0] == "probe":
            last = events[i][1]
        after[i] = last
    return [PROBE_REF_S / statistics.mean(p for p in (b, a) if p) for b, a in zip(before, after)]


def end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    work = WORK / f"{workload}-{seed}"
    jobs = prepare(workload, seed, work)
    setup_samples = SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
    with Launcher() as launcher:
        events, failures = measure(
            jobs, setup_samples, 0 if smoke else seconds, 0 if smoke else MIN_JOBS, work, launcher
        )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{workload}-{seed}.json").write_text(json.dumps(events))
    speed = local_speed(events)
    setups = [(e, k) for e, k in zip(events, speed) if e[0] == "setup"]
    runs = [(e, k) for e, k in zip(events, speed) if e[0] == "job"]
    rounds = {}
    for e, k in runs:
        wall, cpu = rounds.get(e[1], (0.0, 0.0))
        rounds[e[1]] = (wall + e[3] * k, cpu + e[4] * k)
    walls = [e[3] * k for e, k in runs]
    p90 = statistics.quantiles(walls, n=10)[8] if len(walls) > 1 else walls[0]
    metrics = {
        "wall_s": (statistics.median(w for w, _ in rounds.values()), "s"),
        "cpu_s": (statistics.median(c for _, c in rounds.values()), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.p90": (p90, "s"),
        "peak_rss_mb": (max(e[5] for e, _ in runs), "MB"),
        "setup_s": (statistics.median(e[1] * k for e, k in setups), "s"),
    }
    failed = len(failures)
    probes = [e[1] for e in events if e[0] == "probe"]
    info = {
        "rounds": len(rounds),
        "jobs per round": len(jobs),
        "job samples": f"{len(walls)}, {sum(w > p90 for w in walls)} beyond job_s.p90",
        "fail_ratio": f"{failed / (len(walls) + setup_samples):.4f} "
        f"({failed}/{len(walls) + setup_samples} CLI calls, set-up included)",
        "speed probe": f"median {statistics.median(probes):.4f} s over {len(probes)} runs; "
        f"times below are scaled to a probe time of {PROBE_REF_S} s",
        "raw times": f"round median {statistics.median(sum(e[3] for e, _ in runs if e[1] == r) for r in rounds):.4f} s, "
        f"job p50 {statistics.median(e[3] for e, _ in runs):.4f} s, "
        f"--help median {statistics.median(e[1] for e, _ in setups):.4f} s",
    }
    return metrics, {
        "info": info,
        "failures": failures,
        "attempted": len(walls) + setup_samples,
        "failed": failed,
    }


# --- traced in-process run --------------------------------------------------


def run_inprocess(jobs, cli, tracer: Tracer | None) -> tuple[float, list[str]]:
    """One round through cli.main, looked up per call so that the traced
    wrapper is the one called."""
    outputs = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
        outputs.append((code, out.getvalue()))
    wall = time.perf_counter() - start
    failures = []
    for job, (code, text) in zip(jobs, outputs):
        reason = check.check(job, code, text)
        if reason:
            failures.append(f"{' '.join(job.argv)}: {reason}")
    return wall, failures


# Per-layer metrics of the traced run, with the end-to-end metric each
# one should move and on which workload.  A layer that a workload does
# not call reads 0 there.
LAYER_MAP = {
    "exact.GaussianRational.ops": "wall_s, job_s.p90 on germ",
    "germ.PowerSeries.mul.calls": "wall_s on germ; no change on sweep",
    "germ.PowerSeries.mul.self_s": "wall_s on germ; no change on sweep",
    "germ.PowerSeries.invert_unit.self_s": "wall_s on germ; no change on sweep",
    "germ.intersection_multiplicity.calls": "wall_s on germ; no change on sweep",
    "germ.intersection_multiplicity.self_s": "wall_s on germ; no change on sweep",
    "germ.self_intersection.self_s": "wall_s on germ; no change on sweep",
    "cli.retry.attempts": "job_s.p50 on germ",
    "cli.retry.useful_ratio": "job_s.p50 on germ",
    "curvecalc.adjunction_report.calls_per_job": "wall_s on sweep and germ",
    "curvecalc.adjunction_report.self_s": "wall_s on sweep and germ",
    "curvecalc.embeddedness_verdict.self_s": "wall_s on sweep and germ",
    "curvecalc.intersection_report.self_s": "wall_s on sweep and germ",
    "curvecalc.load_config.s": "wall_s on sweep and germ",
    "wps.build_model.self_s": "job_s.p50 on sweep",
    "wps.c0_config.self_s": "job_s.p50 on sweep",
    "wps.c0prime_config.self_s": "job_s.p50 on sweep",
    "wps.dossier.self_s": "job_s.p50 on sweep",
    "surface.orbifold_genus.calls": "job_s.p50 on sweep",
    "lens.cobordism_congruence.calls": "wall_s on sweep, job_s.p50 on scan; no change on germ, chains",
    "lens.cobordism_congruence.self_s": "wall_s on sweep, job_s.p50 on scan; no change on germ, chains",
    "lens.allowed_q_set.self_s": "wall_s on sweep, job_s.p50 on scan; no change on germ, chains",
    "chern_index.kawasaki_index.calls": "wall_s on scan",
    "chern_index.kawasaki_index.self_s": "wall_s on scan",
    "chern_index.index_integrality_scan.self_s": "wall_s on scan",
    "chains.homology_betti.self_s": "wall_s, job_s.p90, peak_rss_mb on chains",
    "chains.boundary_squared_is_zero.self_s": "wall_s, job_s.p90, peak_rss_mb on chains",
    "chains.validate_group_complex.self_s": "wall_s, job_s.p90, peak_rss_mb on chains",
    "chains.load_complex.s": "wall_s, job_s.p90, peak_rss_mb on chains",
    "chains.simplices": "wall_s, job_s.p90, peak_rss_mb on chains",
    "cli.emit_report.self_s": "wall_s on scan and sweep, setup_s everywhere",
    "cli.emit_report.bytes": "wall_s on scan and sweep, setup_s everywhere",
    "cli.main.self_s": "wall_s on scan and sweep, setup_s everywhere",
}
LAYER_MAP.update(
    {f"layer.{m}.self_s": "self time of the module: its share shows the layer split" for m in MODULES}
)


def _stat(tracer: Tracer, name: str, field: int) -> int:
    return tracer.stats.get(name, (0, 0, 0))[field]


def layer_metrics(tracers: list[Tracer], jobs_per_round: int) -> dict:
    """The metrics of LAYER_MAP: counts from the first traced round (they
    repeat exactly), times as medians over the traced rounds.  Times
    named .s are totals (children included), .self_s exclude children;
    chains.load_complex.s covers load_group_complex too."""
    first = tracers[0]

    def times(names, field):
        return statistics.median(sum(_stat(t, n, field) for n in names) / 1e9 for t in tracers)

    def module_names(module):
        return [k for k in first.stats if k.split(".", 1)[0] == module]

    attempts = first.counters.get("cli.retry.attempts", 0)
    successes = first.counters.get("cli.retry.successes", 0)
    special = {
        "exact.GaussianRational.ops": (
            sum(v[0] for k, v in first.stats.items() if k.startswith("exact.GaussianRational.")),
            "count",
        ),
        "cli.retry.attempts": (attempts, "count"),
        "cli.retry.useful_ratio": (successes / attempts if attempts else 0.0, "ratio"),
        "curvecalc.adjunction_report.calls_per_job": (
            _stat(first, "curvecalc.adjunction_report", 0) / jobs_per_round,
            "count/job",
        ),
        "curvecalc.load_config.s": (times(["curvecalc.load_config"], 1), "s"),
        "chains.load_complex.s": (
            times(["chains.load_complex", "chains.load_group_complex"], 1),
            "s",
        ),
        "chains.simplices": (first.counters.get("chains.simplices", 0), "count"),
        "cli.emit_report.bytes": (first.counters.get("cli.emit_report.bytes", 0), "bytes"),
    }
    metrics = {}
    for name in LAYER_MAP:
        if name in special:
            metrics[name] = special[name]
        elif name.startswith("layer."):
            metrics[name] = (times(module_names(name.split(".")[1]), 2), "s")
        elif name.endswith(".calls"):
            metrics[name] = (_stat(first, name[: -len(".calls")], 0), "count")
        else:
            metrics[name] = (times([name[: -len(".self_s")]], 2), "s")
    return metrics


def module_shares(tracers: list[Tracer]) -> dict:
    """Each module's share of the traced self time, median over rounds."""
    shares = {m: [] for m in MODULES}
    for t in tracers:
        total = sum(v[2] for v in t.stats.values()) or 1
        for m in MODULES:
            own = sum(v[2] for k, v in t.stats.items() if k.split(".", 1)[0] == m)
            shares[m].append(own / total)
    return {m: statistics.median(v) for m, v in shares.items()}


def traced(workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    work = WORK / f"{workload}-{seed}"
    jobs = prepare(workload, seed, work)
    sys.path.insert(0, str(ROOT / "src"))
    import orbicurves.cli as cli

    plain_walls, traced_walls, tracers, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, fails = run_inprocess(jobs, cli, None)
        plain_walls.append(wall)
        failures += fails
        tracer = Tracer()
        tracer.install()
        try:
            wall, fails = run_inprocess(jobs, cli, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        tracers.append(tracer)
        failures += fails
        if smoke or time.perf_counter() - start >= min(seconds, HARD_LIMIT_S):
            break
    spans_path = OUT / f"trace-{workload}-{seed}.jsonl"
    tracers[0].write(spans_path, {"workload": workload, "seed": seed, "jobs": [list(j.argv) for j in jobs]})
    plain, with_tracing = statistics.median(plain_walls), statistics.median(traced_walls)
    info = {
        "traced rounds": len(tracers),
        "jobs per round": len(jobs),
        "untraced in-process round": f"{plain:.4f} s",
        "traced round": f"{with_tracing:.4f} s",
        "tracing overhead": f"{with_tracing - plain:.4f} s ({(with_tracing - plain) / plain:.1%})",
        "spans": f"{len(tracers[0].spans)} kept, {tracers[0].dropped} dropped, in {spans_path.relative_to(ROOT)}",
        "self-time share": ", ".join(
            f"{m} {share:.1%}" for m, share in sorted(module_shares(tracers).items(), key=lambda kv: -kv[1])
        ),
    }
    attempted = len(jobs) * 2 * len(tracers)
    return layer_metrics(tracers, len(jobs)), {
        "info": info,
        "failures": failures,
        "attempted": attempted,
        "failed": len(failures),
    }


# --- command line -----------------------------------------------------------


def prepare(workload: str, seed: int, work: Path) -> list:
    work.mkdir(parents=True, exist_ok=True)
    jobs = gen.make_jobs(workload, seed, work.relative_to(ROOT))
    check.attach_oracle_values(jobs, ROOT)
    return jobs


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_block(workload: str, metrics: dict, extra: dict) -> None:
    print(f"== {workload}")
    for key, value in extra["info"].items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        moves = f"  -> {LAYER_MAP[name]}" if name in LAYER_MAP else ""
        print(f"  {name:<42} {value:>12.6g} {unit:<9}{moves}")
    for reason in extra["failures"][:10]:
        print(f"  FAILED {reason}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="orbicurves CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round, three set-up samples and no minimum job count",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/orbicurves/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    print(
        f"orbicurves benchmark: seed {args.seed}, {args.seconds:g} s per workload, "
        f"trace {args.trace}; python {platform.python_version()}, "
        f"nproc {len(os.sched_getaffinity(0))}, git {git_sha()}"
    )
    run = traced if args.trace else end_to_end
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        metrics, extra = run(workload, args.seed, args.seconds, args.smoke)
        print_block(workload, metrics, extra)
        result["correct"] = result["correct"] and not extra["failures"]
        result["attempted"] += extra["attempted"]
        result["failed"] += extra["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in metrics.items():
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
