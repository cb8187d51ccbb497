"""Smoke test of the in-process A/B script, tools/ab.py."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_runs_every_check_on_two_copies_of_one_tree(tmp_path):
    # the parent side is a copy of this tree's src/ and bench/
    skip = shutil.ignore_patterns("__pycache__")
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab.py"), "--parent", str(tmp_path),
         "--workload", "lattice", "--seed", "5", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == {"parent": 0, "change": 0}
    assert report["requests"] > 100
    assert report["parent"]["p50_ms"] > 0 and report["change"]["p50_ms"] > 0
