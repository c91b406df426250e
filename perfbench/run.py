"""chemhill benchmark: drive one workload through the real CLI and report metrics.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seconds S]     every workload, default seed
  python3 perfbench/run.py --record-reference      rewrite reference.json

Run from the repository root. One run starts CLI processes one after another
(closed loop, one client) until ``--seconds`` have passed and reports the
median of each metric over them. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced processes and
prints the per-layer metrics of the traced ones. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np
import workloads as wl
from tracing import count_within, layer_stats

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).with_name("launch.py")
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "step_ms": "ms",
    "post_s": "s",
    "peak_rss_mb": "MB",
}
# span name -> recorded fields; every field becomes "<span>.<field>"
LAYER_SPANS = {
    "cli.parse_config": ("self_s",),
    "cli.build_scenario": ("self_s",),
    "nonlinearity.validate_assumptions": ("calls", "self_s"),
    "nonlinearity.resolvent": ("calls", "self_s"),
    "elliptic.step_solve": ("calls", "self_s"),
    "elliptic.splu": ("calls", "self_s"),
    "elliptic.helmholtz_solve": ("calls", "self_s"),
    "elliptic.neumann_poisson_solve": ("calls", "self_s"),
    "grid.advective_divergence": ("self_s",),
    "scheme.average_sources": ("self_s",),
    "scheme.step": ("self_s",),
    "scheme.save_trajectory_csv": ("self_s",),
    "diagnostics.build_ledger": ("self_s",),
    "limits.study": ("self_s",),
}
LAYER_UNITS = {
    "package.import_s": "s",
    **{
        f"{span}.{field}": "count" if field == "calls" else "s"
        for span, fields in LAYER_SPANS.items()
        for field in fields
    },
    "elliptic.newton_iters_per_step": "iter/step",
    "scheme.save_trajectory_csv.bytes": "bytes",
    "trace.overhead_s": "s",
}
# counters the ROADMAP asks for that only the program itself can see
NOT_MEASURED = {
    "elliptic.cg_iterations": "needs the per-step solver record (ROADMAP item 5)",
    "elliptic.newton_iters_per_stage": "needs the per-step solver record (ROADMAP item 5)",
    "elliptic.newton_backtracks": "needs the per-step solver record (ROADMAP item 5)",
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Session:
    """Work directory, inputs and verified outputs of one workload and seed."""

    def __init__(self, w, seed, reference=True):
        self.w = w
        self.seed = seed
        self.reference = reference  # compare the default seed with reference.json
        self.dir = WORK / f"{w.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        wl.write_datum(w, seed, self.dir / "datum.csv")
        self.config = self.dir / "config.ini"
        self.config.write_text(w.config(self.dir / "datum.csv"))
        self.out = self.dir / "out"
        self.timing = self.dir / "timing.json"
        self.samples = 0
        self.verified = set()   # artifact digests that passed the gate
        self.errors = []

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def launch(self, traced):
        """Run the CLI once; return (spawn time, wall s, peak RSS MB, timing) or None on failure."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.timing.unlink(missing_ok=True)
        self.samples += 1
        argv = [
            sys.executable, str(LAUNCH), str(self.timing),
            f"{self.w.name}-{self.seed}-{os.getpid()}-{self.samples}", str(int(traced)), "--",
            self.w.command, "--config", str(self.config), "--out", str(self.out),
        ]
        with open(self.dir / "cli.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.dir / "cli.log").read_text()[-400:].strip()
            self.errors.append(f"exit status {proc.returncode}: {tail}")
            return None
        problems = self._gate()
        if problems:
            self.errors.extend(problems)
            return None
        return start, wall, usage.ru_maxrss * 1024 / 1e6, json.loads(self.timing.read_text())

    def _gate(self):
        try:
            digest = wl.artifact_digest(self.w, self.out)
        except OSError as exc:
            return [f"missing artifact: {exc}"]
        if digest in self.verified:
            return []
        problems = wl.check_outputs(self.w, self.seed, self.out, self.reference)
        if not problems:
            self.verified.add(digest)
        if len(self.verified) > 1:
            problems.append("artifacts differ between runs of one config")
        return problems


def phase_metrics(spawn, wall, rss, timing):
    """Split the process lifetime at the first and last ``scheme.step`` call."""
    steps = timing["steps"]
    first, last = steps[0][0], steps[-1][1]
    setup = first - spawn
    march = last - first
    return {
        "wall_s": wall,
        "setup_s": setup,
        "step_ms": 1000.0 * sum(end - start for start, end in steps) / len(steps),
        "post_s": wall - setup - march,
        "peak_rss_mb": rss,
    }


def layer_metrics(wall, spans, out):
    stats = layer_stats(spans)
    metrics = {"package.import_s": stats["package.import"]["self_s"]}
    for span, fields in LAYER_SPANS.items():
        entry = stats.get(span, {"calls": 0, "self_s": 0.0})
        for field in fields:
            metrics[f"{span}.{field}"] = entry[field]
    steps = stats.get("scheme.step", {"calls": 0})["calls"]
    iters = count_within(spans, "elliptic.splu", "elliptic.step_solve")
    metrics["elliptic.newton_iters_per_step"] = iters / steps if steps else 0.0
    csv_path = out / "trajectory.csv"
    metrics["scheme.save_trajectory_csv.bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
    self_sum = sum(v for k, v in metrics.items() if k.endswith("_s"))
    if self_sum > wall:
        raise ValueError(f"listed self times {self_sum:.3f} s exceed the traced wall {wall:.3f} s")
    return metrics


def measure(session, seconds, traced):
    """Closed loop of CLI processes until ``seconds`` pass; per-sample metric dicts."""
    plain, layered, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    minimum = 2 if traced else 1
    while time.perf_counter() < deadline or session.samples < minimum:
        run_traced = traced and session.samples % 2 == 1
        got = session.launch(run_traced)
        if got is None:
            if session.samples >= 3 and not (plain or layered):
                break  # nothing succeeds; stop early
            continue
        spawn, wall, rss, timing = got
        if run_traced:
            try:
                layered.append(layer_metrics(wall, timing["spans"], session.out))
                traced_walls.append(wall)
            except (KeyError, ValueError) as exc:
                session.errors.append(str(exc))
        else:
            plain.append(phase_metrics(spawn, wall, rss, timing))
    return plain, layered, traced_walls


def median_metrics(samples, units):
    return {
        name: {"value": statistics.median(s[name] for s in samples) if samples else None, "unit": unit}
        for name, unit in units.items()
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(load_start):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        # a child's peak RSS can never read below this (it is inherited at fork)
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def describe(samples, units):
    lines = []
    for name, unit in units.items():
        vals = sorted(s[name] for s in samples)
        if not vals:
            lines.append(f"  {name:40s} no successful samples")
            continue
        lines.append(
            f"  {name:40s} median {statistics.median(vals):.6g} {unit}"
            f"  (n={len(vals)}, min {vals[0]:.6g}, max {vals[-1]:.6g})"
        )
    return lines


def run_workload(w, seed, seconds, traced):
    load_start = os.getloadavg()[0]
    session = Session(w, seed)
    try:
        plain, layered, traced_walls = measure(session, seconds, traced)
    finally:
        session.close()
    failed = session.samples - len(plain) - len(layered)
    print(f"workload {w.name}  seed {seed}  trace {int(traced)}  {session.samples} CLI runs")
    print(f"  fail_ratio = {failed}/{session.samples} = {failed / session.samples:.6g}")
    for err in session.errors[:5]:
        print(f"  FAILED: {err}")
    print("\n".join(describe(plain, END_TO_END)))
    if traced:
        units = {k: u for k, u in LAYER_UNITS.items() if k != "trace.overhead_s"}
        print("\n".join(describe(layered, units)))
        metrics = median_metrics(layered, units)
        overhead = (
            statistics.median(traced_walls) - statistics.median(s["wall_s"] for s in plain)
            if layered else None
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"  not measured: {json.dumps(NOT_MEASURED)}")
    else:
        metrics = median_metrics(plain, END_TO_END)
    print(json.dumps({"environment": environment(load_start)}))
    return {
        "correct": failed == 0 and bool(plain) and (bool(layered) or not traced),
        "attempted": session.samples,
        "failed": failed,
        "metrics": metrics,
    }


def record_reference():
    refs = {}
    for w in wl.WORKLOADS.values():
        session = Session(w, wl.DEFAULT_SEED, reference=False)
        try:
            session.launch(False)
            if session.errors:
                sys.exit(f"{w.name}: {session.errors}")
            refs[w.name] = wl.reference_entry(w, wl.read_outputs(w, session.out))
        finally:
            session.close()
    wl.REFERENCE_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload at the default seed")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chemhill" / "cli.py").is_file():
        sys.exit(f"no chemhill sources under {ROOT / 'src'}; run from a repository checkout")
    if args.record_reference:
        return record_reference()
    if args.all:
        results = [run_workload(w, wl.DEFAULT_SEED, args.seconds, False) for w in wl.WORKLOADS.values()]
        print(json.dumps({w: r for w, r in zip(wl.WORKLOADS, results)}))
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("give --workload NAME, --all or --record-reference")
    result = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
