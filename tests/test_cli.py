"""Command-line interface: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import blackburn
from blackburn import autos, cli, suites
from blackburn.catalog import builtin
from blackburn.cli import build_parser, main
from blackburn.errors import OrderCap


# Porcelain reports pinned byte for byte: the keys, their order and every value.
PINNED_REPORTS = {
    ("example", "--p", "3", "--porcelain"): """\
p=3
mode=table
matrix_order=3
order_A=27
order_K=81
order_G=243
order_GA=2187
claim.A_has_order_p^p_with_exponent_p^2=pass
claim.matrix_action_on_A_has_order_p=pass
claim.sum_of_the_first_p_matrix_powers_annihilates_A=pass
claim.x*k_has_order_p=pass
claim.z_is_central_of_order_p_in_K=pass
claim.alpha_has_order_p^2=pass
claim.beta_has_order_p=pass
claim.alpha_and_beta_commute=pass
claim.fixed_points_of_alpha^p_are_A_x_<h>=pass
claim.beta_fixes_K_pointwise=pass
claim.beta_equals_alpha_on_H_beyond_K=pass
claim.beta_equals_alpha^(p*s)_with_i*s_=_j_on_mixed_strata=pass
claim.beta_is_pointwise_a_power_of_alpha=pass
claim.beta_is_not_a_power_of_alpha=pass
claim.table_groups_have_orders_p^p,_p^(p+1),_p^(p+2),_p^(p+4)=pass
claim.table_alpha_and_beta_match_the_coordinate_forms=pass
claim.beta_is_locally_a_power_of_alpha_on_the_table_group=pass
claim.beta_is_not_a_power_of_alpha_on_the_table_group=pass
claim.sigma_restricted_to_G_equals_beta=pass
claim.sigma_is_class-preserving=pass
claim.sigma_is_not_inner=pass
all_claims=pass
""",
    ("example", "--p", "5", "--porcelain"): """\
p=5
mode=coordinates
matrix_order=25
order_A=3125
order_K=15625
order_G=78125
claim.A_has_order_p^p_with_exponent_p^2=pass
claim.matrix_action_on_A_has_order_p=pass
claim.sum_of_the_first_p_matrix_powers_annihilates_A=pass
claim.x*k_has_order_p=pass
claim.z_is_central_of_order_p_in_K=pass
claim.alpha_has_order_p^2=pass
claim.beta_has_order_p=pass
claim.alpha_and_beta_commute=pass
claim.fixed_points_of_alpha^p_are_A_x_<h>=pass
claim.beta_fixes_K_pointwise=pass
claim.beta_equals_alpha_on_H_beyond_K=pass
claim.beta_equals_alpha^(p*s)_with_i*s_=_j_on_mixed_strata=pass
claim.beta_is_pointwise_a_power_of_alpha=pass
claim.beta_is_not_a_power_of_alpha=pass
all_claims=pass
""",
    ("classify", "q8xc4", "--porcelain"): """\
order=32
abelian=no
nilpotent=yes
dedekind=no
r_status=nontrivial
r_order=2
blackburn=yes
form=q8_c4_e2
""",
    ("autc", "c7_q8", "--porcelain"): """\
order=56
generators=1 4 8
autc_order=28
inn_order=28
outc_trivial=yes
""",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_q16(capsys):
    code, out = run(capsys, "classify", "q16")
    assert code == 0
    assert "blackburn: yes" in out
    assert "form: q_group" in out
    assert "r_order: 2" in out


def test_classify_porcelain_keys(capsys):
    code, out = run(capsys, "classify", "s3", "--porcelain")
    assert code == 0
    keys = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert keys["order"] == "6"
    assert keys["blackburn"] == "no"
    assert keys["r_status"] == "trivial"


def test_classify_file_source(capsys, tmp_path):
    path = tmp_path / "grp.cayley"
    path.write_text("cayley 1\norder 2\n0 1\n1 0\n")
    code, out = run(capsys, "classify", str(path))
    assert code == 0
    assert "order: 2" in out
    assert "dedekind: yes" in out


def test_autc_command(capsys):
    code, out = run(capsys, "autc", "d8")
    assert code == 0
    assert "outc_trivial: yes" in out


def test_autc_refuses_groups_above_the_order_cap(capsys, monkeypatch):
    # the cap is read when enumerate_autc runs, so a small one stands in for
    # 4096 without building a table of that order
    monkeypatch.setattr(autos, "AUTC_ORDER_CAP", 16)
    with pytest.raises(OrderCap):
        autos.enumerate_autc(builtin("q32"))
    assert main(["autc", "q32"]) == 2
    assert "order 32 exceeds cap 16" in capsys.readouterr().err


def test_autc_refuses_a_file_above_the_order_cap_before_its_rows(capsys, tmp_path, monkeypatch):
    """A cayley file whose order is above the cap is refused at its order
    line, before any row is read: the next line is no table row."""
    monkeypatch.setattr(autos, "AUTC_ORDER_CAP", 16)
    big = tmp_path / "big.cayley"
    big.write_text("cayley 1\norder 32\nnot a table row\n")
    assert main(["autc", str(big)]) == 2
    err = capsys.readouterr().err
    assert "32" in err and "16" in err and "line" not in err


@pytest.mark.parametrize("name, text, order", [
    ("c2.cayley", "cayley 1\norder 2\n0 1\n1 0\n", 2),
    ("c4.permgen", "permgen 1\ndegree 4\ngen 1 2 3 0\n", 4)])
@pytest.mark.parametrize("command", ["classify", "autc"])
def test_file_source_is_opened_once(capsys, tmp_path, monkeypatch, command, name, text, order):
    path = tmp_path / name
    path.write_text(text)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main([command, str(path)]) == 0
    assert len(opened) == 1
    assert f"order: {order}" in capsys.readouterr().out


def test_example_p3(capsys):
    code, out = run(capsys, "example", "--p", "3")
    assert code == 0
    assert out.strip().endswith("sigma: class-preserving, non-inner")
    assert "|GA| = 2187" in out


def test_example_p5(capsys):
    code, out = run(capsys, "example", "--p", "5")
    assert code == 0
    assert "coordinates mode" in out


def test_example_rejects_bad_prime(capsys):
    code, _ = run(capsys, "example", "--p", "7")
    assert code == 2


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "q8xq8xc2" in out
    code2, out2 = run(capsys, "catalog", "--porcelain")
    assert code2 == 0
    assert "group.q16.order=16" in out2


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m blackburn` in a fresh interpreter gives the report and the
    exit code of `main`, also for a usage error."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blackburn.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (["catalog", "--porcelain"], ["example", "--p", "7"]):
        proc = subprocess.run([sys.executable, "-m", "blackburn", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == run(capsys, *argv)
    assert proc.returncode == 2


def test_reports_byte_stable(capsys):
    """Each pinned report comes out byte for byte, on a second run too."""
    for argv, text in PINNED_REPORTS.items():
        for _ in range(2):
            assert run(capsys, *argv) == (0, text)


def test_autc_stats_file_leaves_report_byte_stable(capsys, tmp_path):
    _, plain = run(capsys, "autc", "c7_q8", "--porcelain")
    path = tmp_path / "stats.json"
    code, out = run(capsys, "autc", "c7_q8", "--porcelain", "--stats", str(path))
    assert code == 0
    assert out == plain
    stats = json.loads(path.read_text())
    assert stats["nodes"] == sum(d["rows"] for d in stats["depths"]) > 0
    for d in stats["depths"]:
        assert d["rows"] == sum(d["rejected"].values()) + d["survivors"]
    # the search finds the stabilizer of the first generator, whose 2
    # conjugates give the 28 maps
    assert stats["first_generator_conjugates"] == 2
    assert stats["depths"][-1]["survivors"] == 28 // 2


def test_suite_stats_file_leaves_report_byte_stable(capsys, tmp_path, monkeypatch):
    # two cheap suites stand in for a level, so the report is run twice fast
    monkeypatch.setattr(cli, "run_suites",
                        lambda level: [suites.power_action_outc(), suites.format_roundtrip(16)])
    code, plain = run(capsys, "suite", "--porcelain")
    path = tmp_path / "stats.json"
    code2, out = run(capsys, "suite", "--porcelain", "--stats", str(path))
    assert code == code2 == 0
    assert out == plain
    stats = json.loads(path.read_text())
    assert stats["level"] == "quick"
    assert [s["suite"] for s in stats["suites"]] == ["power-action-outc", "format-roundtrip"]
    for s in stats["suites"]:
        assert f"suite.{s['suite']}.run={len(s['cases'])}" in out
        assert 0 <= sum(c["seconds"] for c in s["cases"]) <= s["seconds"] + 1e-9
    assert stats["seconds"] == sum(s["seconds"] for s in stats["suites"])
    # the peak resident memory of this process, beside the timings
    assert isinstance(stats["peak_rss_mib"], float) and stats["peak_rss_mib"] > 0
    # timings differ from run to run but take no part in equality
    assert suites.power_action_outc() == suites.power_action_outc()


def test_usage_errors(capsys):
    assert run(capsys, "classify", "totally_unknown")[0] == 2
    assert run(capsys, "classify", "/no/such/file.cayley")[0] == 2
    assert main(["bogus_command"]) == 2


def test_shared_parser_repeats_usage_errors(capsys):
    # the parser is built once, so a second call must fail exactly like the first
    assert build_parser() is build_parser()
    results = []
    for _ in range(2):
        code = main(["autc", "d8", "--budget", "many"])
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    code, err = results[0]
    assert code == 2 and "invalid int value: 'many'" in err


def test_bad_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.cayley"
    path.write_text("cayley 1\norder 3\n0 1 2\n1 2 0\n")
    code, _ = run(capsys, "classify", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "autc"])
def test_undecodable_file_and_directory_are_input_errors(capsys, tmp_path, command):
    """A byte that is not UTF-8, before the header or in a table row, and a
    directory named as the source exit 2 with a message, not a
    traceback."""
    head = tmp_path / "head.cayley"
    head.write_bytes(b"# \xfe\ncayley 1\norder 2\n0 1\n1 0\n")
    row = tmp_path / "row.cayley"
    row.write_bytes(b"cayley 1\norder 2\n0 1\n1 \xff0\n")
    for path, message in ((head, "line 1: byte 0xfe is not UTF-8"),
                          (row, "line 4: byte 0xff is not UTF-8"),
                          (tmp_path, "Is a directory")):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("argv, name", [(["autc", "q8xc4"], "enumerate_autc"),
                                        (["suite", "--level", "full"], "run_suites")])
def test_stats_path_is_opened_before_the_work(capsys, tmp_path, monkeypatch, argv, name):
    """A --stats path that cannot be written, here a directory, exits 2
    before the search or the suites run."""
    def never(*args, **kwargs):
        raise AssertionError(f"{name} ran before the stats file was opened")

    monkeypatch.setattr(cli, name, never)
    assert main([*argv, "--stats", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Is a directory" in err


def test_failed_run_keeps_the_old_stats_file(capsys, tmp_path):
    """A run that fails after the --stats FILE was opened leaves what the
    file held; a run that succeeds replaces it whole."""
    path = tmp_path / "stats.json"
    old = "old\n" * 1000
    path.write_text(old)
    assert main(["autc", "q8xc4", "--budget", "1", "--stats", str(path)]) == 2
    assert "search exceeded 1 nodes" in capsys.readouterr().err
    assert path.read_text() == old
    assert run(capsys, "autc", "c7_q8", "--stats", str(path))[0] == 0
    assert json.loads(path.read_text())["nodes"] > 0


@pytest.mark.parametrize("argv", [["autc", "c7_q8"], ["suite", "--level", "quick"]])
def test_stats_file_need_not_be_regular(capsys, argv):
    """A --stats FILE that cannot be emptied, here the null device, is
    written to as it is."""
    assert main([*argv, "--stats", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_byte_order_mark_is_dropped(capsys, tmp_path):
    """A UTF-8 file that begins with a byte-order mark classifies as the
    same file without it, in both formats."""
    texts = {"grp.cayley": "cayley 1\norder 2\n0 1\n1 0\n",
             "grp.permgen": "permgen 1\ndegree 3\ngen 1 2 0\n"}
    for name, text in texts.items():
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want = run(capsys, "classify", str(plain), "--porcelain")
        assert want[0] == 0
        assert run(capsys, "classify", str(marked), "--porcelain") == want


@pytest.mark.parametrize("spec", ["cyclic()", "cyclic(1,2)", "elementary_abelian(2)",
                                  "q_group(4,2)", "cyclic(1 2)", "cyclic(1,,2)"])
def test_a_malformed_builtin_spec_is_a_usage_error(capsys, spec):
    assert main(["classify", spec]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_max_order_refuses_a_builtin_above_it(capsys):
    assert main(["classify", "q32", "--max-order", "16"]) == 2
    err = capsys.readouterr().err
    assert "32" in err and "16" in err
    assert main(["classify", "q32", "--max-order", "32"]) == 0


def test_max_order_refuses_before_the_table_is_built(capsys, tmp_path):
    sym7 = tmp_path / "sym7.permgen"
    sym7.write_text("permgen 1\ndegree 7\ngen 1 0 2 3 4 5 6\ngen 1 2 3 4 5 6 0\n")
    assert main(["classify", str(sym7), "--max-order", "1000"]) == 2
    assert "1000" in capsys.readouterr().err
    # the order line is checked before any row is read
    big = tmp_path / "big.cayley"
    big.write_text("cayley 1\norder 5040\nnot a table row\n")
    assert main(["classify", str(big), "--max-order", "1000"]) == 2
    err = capsys.readouterr().err
    assert "5040" in err and "1000" in err
