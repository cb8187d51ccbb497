"""In-process A/B of one benchmark workload on two source trees.

    python3 tools/ab.py --parent DIR --workload lattice --seed 1 --rounds 6
    python3 tools/ab.py --parent DIR --workload aut-oracle --label harness:5,125 ...

The change side is the tree this script sits in; --parent is the root of
another checkout (its src/ and bench/ are read).  Both trees' toolkit
(`src/blackburn`) and benchmark modules (`bench/workloads.py`,
`bench/checks.py`) are imported into this one process, each under its own
copy of the module names: before a side generates or runs anything,
`sys.modules` is bound to that side's modules, so lazy imports inside the
toolkit resolve to the same tree.

Every round, each side generates its requests from (seed, round); the two
lists must carry the same labels and inputs.  With --label PREFIX, only the
requests whose label starts with PREFIX are kept, on both sides, and the
report records the prefix.  The requests are then run in
pairs, one request on each side, and the side that goes first alternates
from one pair to the next.  Only the request is timed; every output is
checked by its own side's check, outside the timer.  As in bench/run.py,
the cyclic garbage collector is paused during a round and run between
rounds.

The report gives each side's p50 and p90 request latency, the median over
requests of the per-request time ratio change / parent, and the failed
checks per side, and for each request kind (the label up to its first
'#') the number of requests and their median ratio; the last line of
standard output is the same as JSON.
The exit code is 1 when a check failed on either side.  One process sees
both sides under the same load, so the ratio is steadier on a shared
machine than separate runs of bench/run.py; it supports a speed claim but
does not replace the benchmark's end-to-end metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import shutil
import statistics
import sys
import tempfile
import time

CHANGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_MODULES = ("workloads", "checks")


def _owned(name: str) -> bool:
    return name == "blackburn" or name.startswith("blackburn.") or name in BENCH_MODULES


def _unbind() -> None:
    for name in [k for k in sys.modules if _owned(k)]:
        del sys.modules[name]


class Side:
    """One tree's toolkit and benchmark modules, imported once."""

    def __init__(self, name: str, root: str):
        self.name = name
        self.root = os.path.realpath(root)
        src, bench = os.path.join(self.root, "src"), os.path.join(self.root, "bench")
        _unbind()
        sys.path[:0] = [src, bench]
        try:
            blackburn = importlib.import_module("blackburn")
            # every submodule now, so that no lazy import adds one later
            for info in pkgutil.iter_modules(blackburn.__path__):
                if info.name != "__main__":
                    importlib.import_module(f"blackburn.{info.name}")
            self.workloads = importlib.import_module("workloads")
        finally:
            del sys.path[:2]
        for mod in ("blackburn", "workloads"):
            path = os.path.realpath(sys.modules[mod].__file__)
            if not path.startswith(self.root + os.sep):
                raise SystemExit(f"ab: {name} imported {mod} from {path}, not from {self.root}")
        self.modules = {k: v for k, v in sys.modules.items() if _owned(k)}
        _unbind()

    def bind(self) -> None:
        _unbind()
        sys.modules.update(self.modules)


def run_ab(parent_root: str, workload: str, seed: int, rounds: int, out=sys.stdout,
           label: str = "") -> dict:
    """Run the A/B on the requests whose label starts with `label` and
    write its report to `out`; the modules of this process's own toolkit
    are bound again when it returns."""
    saved = {k: v for k, v in sys.modules.items() if _owned(k)}
    workdir = tempfile.mkdtemp(prefix="ab-")
    try:
        sides = [Side("parent", parent_root), Side("change", CHANGE_ROOT)]
        for s in sides:
            if workload not in s.workloads.WORKLOADS:
                raise SystemExit(f"ab: {s.name} has no workload {workload!r}")
        times = {s.name: [] for s in sides}
        failed = {s.name: 0 for s in sides}
        ratios = []
        kinds = {}  # request kind -> its ratios
        loads = []
        for s in sides:
            s.bind()
            wd = os.path.join(workdir, s.name)
            os.makedirs(wd)
            wl = s.workloads
            loads.append(wl.WORKLOADS[workload](seed, wd, wl.load_pins()))
        pair = 0
        for r in range(rounds):
            reqs = []
            for s, w in zip(sides, loads):
                s.bind()
                reqs.append(w.round(r))
            if [(q.label, q.data) for q in reqs[0]] != [(q.label, q.data) for q in reqs[1]]:
                raise SystemExit(f"ab: round {r} generates different requests on the two sides")
            reqs = [[q for q in side if q.label.startswith(label)] for side in reqs]
            gc.collect()
            gc.disable()
            try:
                for both in zip(*reqs):
                    took = {}
                    order = (0, 1) if pair % 2 == 0 else (1, 0)
                    pair += 1
                    for i in order:
                        s, req = sides[i], both[i]
                        s.bind()
                        start = time.perf_counter()
                        try:
                            result = req.run()
                        except Exception as exc:  # a failed request fails its check
                            result = exc
                        took[s.name] = time.perf_counter() - start
                        try:
                            ok = not isinstance(result, Exception) and bool(req.check(result))
                        except Exception:  # a check that cannot read the output fails it
                            ok = False
                        if not ok:
                            failed[s.name] += 1
                            out.write(f"ab: {s.name} request {req.label} failed its check\n")
                        times[s.name].append(took[s.name])
                    ratios.append(took["change"] / took["parent"])
                    kinds.setdefault(both[0].label.split("#", 1)[0], []).append(ratios[-1])
            finally:
                gc.enable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _unbind()
        sys.modules.update(saved)
    if not ratios:
        raise SystemExit(f"ab: no request has a label starting with {label!r}")
    report = {
        "workload": workload,
        "label": label,
        "seed": seed,
        "rounds": rounds,
        "requests": len(ratios),
        "median_ratio_change_over_parent": round(statistics.median(ratios), 4),
        "failed": failed,
    }
    for name, ts in times.items():
        # p90 as bench/run.py reads it
        p90 = statistics.quantiles(ts, n=10)[8] if len(ts) > 1 else ts[0]
        report[name] = {"p50_ms": round(statistics.median(ts) * 1000, 4),
                        "p90_ms": round(p90 * 1000, 4)}
    report["by_label"] = {
        kind: {"requests": len(rs), "median_ratio_change_over_parent":
               round(statistics.median(rs), 4)}
        for kind, rs in sorted(kinds.items())}
    for kind, row in report["by_label"].items():
        out.write(f"{kind:<32} {row['requests']:>5} requests  median ratio "
                  f"{row['median_ratio_change_over_parent']:.4f}\n")
    for name in times:
        out.write(f"{name:<6} p50 {report[name]['p50_ms']:.4f} ms  "
                  f"p90 {report[name]['p90_ms']:.4f} ms  failed {failed[name]}\n")
    out.write(f"median per-request ratio change/parent: "
              f"{report['median_ratio_change_over_parent']:.4f} over {len(ratios)} requests\n")
    out.write(json.dumps(report) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--label", default="", metavar="PREFIX",
                        help="run only the requests whose label starts with PREFIX")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    report = run_ab(args.parent, args.workload, args.seed, args.rounds, label=args.label)
    return 1 if any(report["failed"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
