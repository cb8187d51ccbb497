"""Command-line entry points.

Commands: classify, autc, example, suite, catalog.  Exit codes: 0 when all
checks pass, 1 when a mathematical claim fails, 2 on input or usage errors.
Reports are plain text by default; --porcelain switches to line-oriented
key=value records with stable keys.  `autc --stats FILE` also writes the
search statistics (nodes, and rows rejected per depth by reason) to FILE as
JSON, and `suite --stats FILE` the elapsed seconds per suite and per case
and the process's peak resident memory; the report itself does not change.
Either FILE is opened before the work, so a path that cannot be written
fails at once, and emptied only when the stats are written, so a run that
fails leaves what it held.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import stat
import sys
from typing import List, Optional

from . import autos, classify
from ._arith import prime_divisors
from .autos import DEFAULT_BUDGET, enumerate_autc
from .catalog import CATALOG, CATALOG_VERSION
from .counterexample import SUPPORTED_WITNESS_PRIMES, verify_witness
from .errors import ClaimFailed, GroupError, ParseError
from .formats import load_source
from .suites import run_suites

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2


def _emit(lines: List[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_rows(rows: List[tuple], porcelain: bool) -> None:
    """(key, value) rows as key=value lines, or as key: value lines."""
    sep = "=" if porcelain else ": "
    _emit([f"{k}{sep}{v}" for k, v in rows])


def cmd_classify(source: str, porcelain: bool, max_order: Optional[int]) -> int:
    g = load_source(source, max_order)
    status = classify.r_of(g)
    blackburn = status.tag == classify.NONTRIVIAL and classify.is_blackburn(g)
    form = None
    if blackburn and prime_divisors(g.order) == [2] and g.order <= classify.FORM_ORDER_CAP:
        form = classify.blackburn_2group_form(g)
    rows = [
        ("order", g.order),
        ("abelian", _yn(g.is_abelian())),
        ("nilpotent", _yn(g.is_nilpotent())),
        ("dedekind", _yn(classify.is_dedekind(g))),
        ("r_status", status.tag),
        ("r_order", status.order if status.tag != classify.UNDEFINED else "-"),
        ("blackburn", _yn(blackburn)),
    ]
    if form is not None:
        rows.append(("form", form))
    _emit_rows(rows, porcelain)
    return EXIT_OK


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _stats_file(path: Optional[str]):
    """The `--stats FILE` opened for writing but not truncated, so that a
    path that cannot be written fails before the work, and a run that fails
    leaves what the file held; a null context without one."""
    return contextlib.nullcontext() if path is None else open(path, "a", encoding="utf-8")


def _dump_json(fh, obj) -> None:
    """Replace what the stats file held with obj as JSON; a FILE that is no
    regular file, such as /dev/null or a pipe, cannot be emptied and is
    only written to."""
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        fh.truncate(0)
    json.dump(obj, fh, indent=1)
    fh.write("\n")


def cmd_autc(source: str, porcelain: bool, budget: int, stats: Optional[str] = None) -> int:
    g = load_source(source, autos.AUTC_ORDER_CAP)  # read per call, as enumerate_autc reads it
    with _stats_file(stats) as fh:
        maps, rep = enumerate_autc(g, budget=budget)
        if fh is not None:
            _dump_json(fh, rep.search_stats)
    rows = [
        ("order", g.order),
        ("generators", " ".join(str(x) for x in rep.generating_set)),
        ("autc_order", rep.autc_order),
        ("inn_order", rep.inn_order),
        ("outc_trivial", _yn(rep.outc_trivial)),
    ]
    if rep.witness is not None:
        imgs = " ".join(str(int(rep.witness.images[x])) for x in rep.generating_set)
        rows.append(("witness_generator_images", imgs))
    _emit_rows(rows, porcelain)
    return EXIT_OK


def cmd_example(p: int, porcelain: bool) -> int:
    if p not in SUPPORTED_WITNESS_PRIMES:
        raise GroupError(f"--p must be one of {SUPPORTED_WITNESS_PRIMES}")
    report = verify_witness(p, raise_on_fail=False)
    lines = []
    if porcelain:
        lines.append(f"p={p}")
        lines.append(f"mode={report.mode}")
        lines.append(f"matrix_order={report.matrix_order}")
        for key, value in report.group_orders.items():
            if value is not None:
                lines.append(f"order_{key}={value}")
        for claim, ok in report.claims:
            lines.append(f"claim.{claim.replace(' ', '_')}={'pass' if ok else 'fail'}")
        lines.append(f"all_claims={'pass' if report.ok else 'fail'}")
    else:
        lines.append(f"witness construction for p = {p} ({report.mode} mode)")
        orders = ", ".join(f"|{k}| = {v}" for k, v in report.group_orders.items()
                           if v is not None)
        lines.append(f"groups: {orders}")
        lines.append(f"twist matrix order: {report.matrix_order}")
        for claim, ok in report.claims:
            lines.append(f"  [{'ok' if ok else 'FAIL'}] {claim}")
        if report.ok and p == 3:
            lines.append("sigma: class-preserving, non-inner")
    _emit(lines)
    return EXIT_OK if report.ok else EXIT_CLAIM_FAILED


def cmd_suite(level: str, porcelain: bool, stats: Optional[str] = None) -> int:
    with _stats_file(stats) as fh:
        results = run_suites(level)
        if fh is not None:
            _dump_json(fh, {
                "level": level,
                "seconds": sum(r.seconds for r in results),
                # ru_maxrss is in KiB on Linux
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "suites": [
                    {"suite": r.suite, "seconds": r.seconds,
                     "cases": [{"case": label, "seconds": sec} for label, sec in r.case_seconds]}
                    for r in results
                ],
            })
    lines = []
    failed = False
    for r in results:
        if porcelain:
            lines.append(f"suite.{r.suite}.run={r.run}")
            lines.append(f"suite.{r.suite}.passed={r.passed}")
            if r.first_failure is not None:
                lines.append(f"suite.{r.suite}.first_failure={r.first_failure!r}")
        else:
            mark = "ok " if r.ok else "FAIL"
            lines.append(f"[{mark}] {r.suite}: {r.passed}/{r.run}")
            if r.first_failure is not None:
                lines.append(f"       first failure: {r.first_failure}")
        failed = failed or not r.ok
    if porcelain:
        lines.append(f"result={'fail' if failed else 'pass'}")
    else:
        lines.append("result: " + ("FAIL" if failed else "all suites passed"))
    _emit(lines)
    return EXIT_CLAIM_FAILED if failed else EXIT_OK


def cmd_catalog(porcelain: bool) -> int:
    lines = []
    if porcelain:
        lines.append(f"catalog_version={CATALOG_VERSION}")
        for e in CATALOG:
            lines.append(f"group.{e.name}.order={e.order}")
            lines.append(f"group.{e.name}.family={e.family}")
    else:
        lines.append(f"builtin catalog (version {CATALOG_VERSION}, {len(CATALOG)} groups)")
        for e in CATALOG:
            lines.append(f"  {e.name:<12} order {e.order:>4}  {e.family}")
    _emit(lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="blackburn",
        description="Finite group toolkit: classification and class-preserving automorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="structural report for a group")
    p_classify.add_argument("source", help="builtin name/spec or a cayley/permgen file")
    p_classify.add_argument("--porcelain", action="store_true")
    p_classify.add_argument("--max-order", type=int)

    p_autc = sub.add_parser("autc", help="class-preserving automorphism report")
    p_autc.add_argument("source")
    p_autc.add_argument("--porcelain", action="store_true")
    p_autc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_autc.add_argument("--stats", metavar="FILE", help="write search statistics as JSON")

    p_example = sub.add_parser("example", help="verify the witness construction")
    p_example.add_argument("--p", type=int, default=3)
    p_example.add_argument("--porcelain", action="store_true")

    p_suite = sub.add_parser("suite", help="run the verification suites")
    p_suite.add_argument("--level", choices=("quick", "full"), default="quick")
    p_suite.add_argument("--porcelain", action="store_true")
    p_suite.add_argument("--stats", metavar="FILE",
                         help="write per-suite and per-case timings and peak RSS as JSON")

    p_catalog = sub.add_parser("catalog", help="list the builtin catalog")
    p_catalog.add_argument("--porcelain", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "classify":
            return cmd_classify(args.source, args.porcelain, args.max_order)
        if args.command == "autc":
            return cmd_autc(args.source, args.porcelain, args.budget, args.stats)
        if args.command == "example":
            return cmd_example(args.p, args.porcelain)
        if args.command == "suite":
            return cmd_suite(args.level, args.porcelain, args.stats)
        if args.command == "catalog":
            return cmd_catalog(args.porcelain)
        return EXIT_USAGE
    except ClaimFailed as exc:
        sys.stderr.write(f"claim failed: {exc}\n")
        return EXIT_CLAIM_FAILED
    except (ParseError, OSError) as exc:  # a missing, unreadable or undecodable file
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_USAGE
    except GroupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
