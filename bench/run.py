"""Run one benchmark workload of the blackburn toolkit and print its metrics.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The toolkit is imported from ./src only, and
the process exits with code 2 when it is missing.  Searches run in-process
with BLACKBURN_WORKERS=1: on a shared two-core machine a second worker
process would measure the scheduler, so the fork pool is not measured here.

setup_s is the median over SETUP_REPEATS fresh child processes, spread over
the run (see SetupProbes).  Each child imports numpy, then starts its clock,
imports the toolkit and the benchmark modules, builds the workload and
generates its first round, and reports the CPU time it used.  Interpreter start and the numpy import are left out: no
change to the toolkit moves them, and their cost on a shared machine swings
by a fifth from one process to the next.  CPU time rather than wall time,
because on a shared machine wall time mostly measures how long the process
waited for a core.

The timed phase runs whole rounds of requests (see workloads.py) until at
least MIN_REQUESTS requests were made and the next round would end nearer
past --seconds than this one ends before it.  Only the
requests themselves are timed: output checks and the generation of the next
round's inputs run between requests, outside the timers.  As in timeit, the
cyclic garbage collector is paused during a round and run between rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates each round
untraced and traced and prints per-layer metrics per traced round; the spans
are written to .bench_work/.  The last line of standard output is always
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MIN_REQUESTS = 100
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5


def import_toolkit():
    """Import blackburn from ./src, never from an installed copy."""
    init = os.path.join(SRC, "blackburn", "__init__.py")
    if not os.path.isfile(init):
        sys.stderr.write(f"bench: {init} not found; run from the repository root\n")
        sys.exit(2)
    os.environ["BLACKBURN_WORKERS"] = "1"
    sys.path.insert(0, SRC)
    import blackburn

    if os.path.realpath(blackburn.__file__) != os.path.realpath(init):
        sys.stderr.write(f"bench: imported {blackburn.__file__}, expected {init}\n")
        sys.exit(2)
    return blackburn


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "BLACKBURN_WORKERS": os.environ.get("BLACKBURN_WORKERS"),
        "fork_pool": "not measured: one in-process client, one worker",
    }


class Runner:
    """Executes requests one after another and records latency and outcome."""

    def __init__(self, corrupt=None):
        self.latencies: list = []
        self.failed = 0
        self.corrupt = corrupt

    def run(self, requests, tracer=None) -> float:
        """Run the requests; returns the summed request time."""
        gc.collect()
        gc.disable()
        try:
            return self._run(requests, tracer)
        finally:
            gc.enable()

    def _run(self, requests, tracer) -> float:
        total = 0.0
        for req in requests:
            start = time.perf_counter()
            err = None
            try:
                out = tracer.request(req.label, req.run) if tracer else req.run()
            except Exception as exc:  # any request failure counts against error_rate
                out, err = None, exc
            dt = time.perf_counter() - start
            total += dt
            self.latencies.append(dt)
            ok = False
            if err is None:
                if self.corrupt is not None:
                    out = self.corrupt(req, out)
                try:
                    ok = bool(req.check(out))
                except Exception as exc:  # a check that cannot read the output fails it
                    err = exc
            if not ok:
                self.failed += 1
                if self.failed <= MAX_REPORTED_FAILURES:
                    detail = "".join(traceback.format_exception_only(type(err), err)) if err else "wrong output\n"
                    sys.stderr.write(f"bench: request {req.label} failed: {detail}")
        return total

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def setup_probe(workload: str, seed: int) -> int:
    """Child mode: set up once and print the CPU time it took."""
    import numpy  # noqa: F401  (a fixed cost, outside the clock)

    start = time.process_time()
    import_toolkit()
    import spans  # noqa: F401
    import workloads

    workdir = os.path.join(WORK, f"setup-{workload}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workloads.WORKLOADS[workload](seed, workdir, workloads.load_pins()).round(0)
        cpu_s = time.process_time() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_cpu_s": cpu_s}))
    return 0


class SetupProbes:
    """Set-up probes spread over the run: one before the timed phase, the
    next ones between rounds as the phase passes each further share of
    --seconds, and the last at the end.  The machine's speed drifts over
    seconds, so probes run back to back would all sample one moment; spread
    out, their median covers the same stretch of time as the timed phase."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", "0", "--setup-probe"]
        self.times: list = []

    def step(self) -> None:
        if len(self.times) >= SETUP_REPEATS:
            return
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        self.times.append(json.loads(proc.stdout.splitlines()[-1])["setup_cpu_s"])

    def between_rounds(self, progress: float) -> None:
        """Probe if the timed phase, progress of the way through, is due one."""
        if len(self.times) < 1 + int(progress * (SETUP_REPEATS - 1)):
            self.step()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.step()
        return statistics.median(self.times)


def timed_rounds(w, first, seconds: float, runner: Runner, tracer=None, probes=None):
    """Whole rounds until the request floor is met and the phase is within
    half a round of --seconds.  With a tracer, each round runs both untraced
    and traced.  Set-up probes run between rounds and do not count towards
    --seconds.  Returns (untraced throughput of each round, untraced request
    time, traced request time)."""
    start = time.perf_counter()
    paused = 0.0
    rates, plain, traced = [], 0.0, 0.0
    reqs = first
    while True:
        # With a tracer, alternate which pass goes first, so the second pass's
        # warm file and allocator state favours neither side of the overhead.
        if tracer is not None and len(rates) % 2:
            traced += _traced(runner, reqs, tracer)
        ok_before = runner.attempted - runner.failed
        dt = runner.run(reqs)
        plain += dt
        rates.append((runner.attempted - runner.failed - ok_before) / dt)
        if tracer is not None and len(rates) % 2:
            traced += _traced(runner, reqs, tracer)
        elapsed = time.perf_counter() - start - paused
        if probes is not None:
            pause = time.perf_counter()
            probes.between_rounds(elapsed / seconds)
            paused += time.perf_counter() - pause
        if runner.attempted >= MIN_REQUESTS and elapsed + elapsed / len(rates) / 2 >= seconds:
            return rates, plain, traced
        reqs = w.round(len(rates))


def _traced(runner: Runner, reqs, tracer) -> float:
    tracer.install()
    try:
        return runner.run(reqs, tracer)
    finally:
        tracer.uninstall()


def end_to_end(runner: Runner, rates: list, setup_s: float) -> dict:
    """Throughput is the median over rounds of correct requests per second of
    request time, so one round slowed by a rare labelling or a passing load
    does not decide it; the latency percentiles pool every request."""
    lat = runner.latencies
    return {
        "throughput_rps": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def print_layer_table(tracer, rounds: int, dominance: list) -> None:
    total = sum(tracer.self_s.values())
    rows = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    print(f"per-layer self time per traced round ({rounds} rounds):")
    for name, s in rows:
        if s > 0:
            print(f"  {name:<45} {s / rounds:10.4f} s  {100 * s / total:5.1f}%  "
                  f"{tracer.calls[name] / rounds:10.1f} calls")
    share = sum(s for name, s in tracer.self_s.items()
                if any(name.startswith(p) for p in dominance)) / total
    print(f"stated layers {' + '.join(dominance)}: {100 * share:.1f}% of traced self time")


def write_spans(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["id", "parent", "request", "name", "start", "end"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import_toolkit()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as fh:
        layers = json.load(fh)
    probes = None if args.trace else SetupProbes(args.workload, args.seed)
    if probes is not None:
        probes.step()

    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir, workloads.load_pins())
        first = w.round(0)
        runner = Runner()
        tracer = spans.Tracer(layers["functions"]) if args.trace else None
        rates, plain, traced = timed_rounds(w, first, args.seconds, runner, tracer, probes)
        rounds = len(rates)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"requests={runner.attempted} failed={runner.failed} "
          f"error_rate={runner.failed / runner.attempted:.4f} request_time_s={plain + traced:.3f}")
    if tracer is None:
        metrics = end_to_end(runner, rates, probes.median())
    else:
        metrics = spans.layer_metrics(tracer, rounds, traced / plain)
        print_layer_table(tracer, rounds, layers["dominance"][args.workload])
        path = os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.jsonl")
        write_spans(tracer, path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
