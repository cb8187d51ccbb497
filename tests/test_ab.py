"""Smoke test of the in-process A/B script, tools/ab.py."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_ab(parent, *args):
    """tools/ab.py on one lattice round, against the tree at `parent`."""
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab.py"), "--parent", str(parent),
         "--workload", "lattice", "--seed", "5", "--rounds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def copy_tree(tmp_path):
    """A copy of this tree's src/ and bench/, to stand as the parent side."""
    skip = shutil.ignore_patterns("__pycache__")
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part, ignore=skip)
    return tmp_path


def test_ab_runs_every_check_on_two_copies_of_one_tree(tmp_path):
    proc = run_ab(copy_tree(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == {"parent": 0, "change": 0}
    assert report["label"] == ""
    assert report["requests"] > 100
    assert report["parent"]["p50_ms"] > 0 and report["change"]["p50_ms"] > 0


def test_ab_label_runs_only_the_requests_it_names(tmp_path):
    parent = copy_tree(tmp_path)
    proc = run_ab(parent, "--label", "lattice:q8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["label"] == "lattice:q8"
    # lattice:q8, lattice:q8xc2, lattice:q8xc3, lattice:q8xc4 and so on, one pair each
    assert 1 <= report["requests"] < 20
    assert report["failed"] == {"parent": 0, "change": 0}
    proc = run_ab(parent, "--label", "no-such-request")
    assert proc.returncode != 0 and "no request has a label" in proc.stderr


def test_ab_reports_each_request_kind(tmp_path):
    proc = run_ab(copy_tree(tmp_path), "--label", "trichotomy:")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    kinds = report["by_label"]
    # one kind per group, the "#i" of each sampled subgroup cut off
    assert kinds and all(k.startswith("trichotomy:") and "#" not in k for k in kinds)
    assert sum(row["requests"] for row in kinds.values()) == report["requests"]
    for kind, row in kinds.items():
        assert row["median_ratio_change_over_parent"] > 0
        assert f"{kind} " in proc.stdout
