import json

import pytest

from locdt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_petersen(capsys):
    code, out, _ = run_cli(capsys, "construct", "petersen")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "10 15"
    assert len(lines) == 16


def test_construct_pg2_header(capsys):
    code, out, _ = run_cli(capsys, "construct", "pg2", "--q", "2")
    assert code == 0
    assert out.splitlines()[0] == "14 21"


def test_construct_unsupported_q(capsys):
    code, _, err = run_cli(capsys, "construct", "pg2", "--q", "6")
    assert code == 2
    assert "error" in err


def test_construct_labels_sidecar(tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    code, _, _ = run_cli(capsys, "construct", "pg2", "--q", "2",
                         "-o", str(tmp_path / "g.txt"), "--labels", str(labels))
    assert code == 0
    first = labels.read_text().splitlines()[0]
    idx, label = first.split("\t")
    assert idx == "0" and label.startswith("P")


def test_analyze_hosi(capsys):
    code, out, _ = run_cli(capsys, "analyze", "hosi")
    assert code == 0
    rep = json.loads(out)
    assert (rep["n"], rep["girth"], rep["diameter"], rep["subdivision_diameter"]) == (
        50, 5, 2, 6)
    assert rep["delta"] == 2 and rep["is_cage"]


def test_analyze_w3_q2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "w3", "--q", "2")
    rep = json.loads(out)
    assert (rep["n"], rep["girth"], rep["diameter"], rep["subdivision_diameter"]) == (
        30, 8, 4, 8)
    assert rep["delta"] == 0


def test_analyze_disconnected_exit2(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "analyze", "--graph", str(path))
    assert code == 2


def test_analyze_roundtrip_is_bit_exact(tmp_path, capsys):
    gfile = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "construct", "kbip", "3", "3", "-o", str(gfile))
    assert code == 0
    code, out1, _ = run_cli(capsys, "analyze", "--graph", str(gfile))
    code, out2, _ = run_cli(capsys, "analyze", "kbip", "3", "3")
    assert out1 == out2


def test_analyze_tsv_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "petersen", "--format", "tsv")
    assert code == 0
    entries = dict(line.split("\t") for line in out.splitlines())
    assert entries["n"] == "10"
    assert entries["girth"] == "5"


def test_aut_orders(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "aut", "petersen")
    assert code == 0 and out.strip() == "120"
    code, out, _ = run_cli(capsys, "aut", "kbip", "3", "3")
    assert code == 0 and out.strip() == "72"
    gens = tmp_path / "gens.txt"
    code, out, _ = run_cli(capsys, "aut", "pg2", "--q", "2", "-o", str(gens))
    assert code == 0 and out.strip() == "336"
    header = gens.read_text().splitlines()[0].split()
    assert header[0] == "14"


def test_aut_vertex_limit_exit3(capsys, monkeypatch):
    monkeypatch.setenv("LOCDT_VERTEX_LIMIT", "5")
    code, _, err = run_cli(capsys, "aut", "petersen")
    assert code == 3


def test_check_ldt_m10_recipe(capsys):
    code, out, _ = run_cli(
        capsys, "check-ldt", "w3", "--q", "2", "--recipe", "m10",
        "--s", "8", "--subdivide")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] is True


def test_check_ldt_pgl_recipe_fails(capsys):
    code, out, _ = run_cli(
        capsys, "check-ldt", "w3", "--q", "2", "--recipe", "pgl29",
        "--s", "8", "--subdivide")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] is False
    assert rep["first_failure"]["orbit_sizes"] == [8, 8]


def test_check_ldt_bad_generators_exit4(tmp_path, capsys):
    gens = tmp_path / "bad.txt"
    gens.write_text("10 1\n1 0 2 3 4 5 6 7 8 9\n")
    code, _, err = run_cli(capsys, "check-ldt", "petersen", "--gens", str(gens),
                           "--s", "1")
    assert code == 4


def test_check_ldt_disconnected_graph_exit2(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "check-ldt", "--graph", str(path), "--s", "1")
    assert code == 2
    assert "connected" in err


@pytest.mark.parametrize("s", ["0", "-3"])
def test_check_ldt_depth_below_one_exit2(capsys, s):
    code, out, _ = run_cli(capsys, "check-ldt", "petersen", "--s", s)
    assert code == 2
    assert out == ""


def test_check_arc_depth_zero_exit2(capsys):
    code, out, _ = run_cli(capsys, "check-arc", "petersen", "--s", "0")
    assert code == 2
    assert out == ""


def test_check_arc_cli(capsys):
    code, out, _ = run_cli(capsys, "check-arc", "petersen", "--s", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["arc_count"] == 120 and rep["transitive"]


def test_moore_values(capsys):
    for k, g, want in ((3, 5, 10), (7, 5, 50), (4, 12, 728)):
        code, out, _ = run_cli(capsys, "moore", str(k), str(g))
        assert code == 0 and out.strip() == str(want)


def test_moore_bad_args(capsys):
    code, _, _ = run_cli(capsys, "moore", "1", "5")
    assert code == 2


def test_exclusive_input_modes(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, _, err = run_cli(capsys, "analyze", "petersen", "--graph", str(path))
    assert code == 2
    assert "mutually exclusive" in err


def test_construct_output_matches_stdout(tmp_path, capsys):
    out_file = tmp_path / "c7.txt"
    code, _, _ = run_cli(capsys, "construct", "cycle", "--n", "7", "-o", str(out_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "construct", "cycle", "--n", "7")
    assert out_file.read_text() == out


def test_check_ldt_with_generator_file(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    code, out, _ = run_cli(capsys, "aut", "petersen", "-o", str(gens))
    assert code == 0
    code, out, _ = run_cli(capsys, "check-ldt", "petersen", "--gens", str(gens),
                           "--s", "6", "--subdivide")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_ldt_trivial_group_fails(tmp_path, capsys):
    gens = tmp_path / "trivial.txt"
    gens.write_text("10 0\n")
    code, out, _ = run_cli(capsys, "check-ldt", "petersen", "--gens", str(gens),
                           "--s", "1")
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_verify_table_cli_and_golden(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify-table", "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    rep = json.loads(text)
    assert rep["verdict"] is True

    golden = tmp_path / "golden.json"
    golden.write_text(text)
    code, _, _ = run_cli(capsys, "verify-table", "--golden", str(golden),
                         "-o", str(tmp_path / "again.json"))
    assert code == 0
    assert (tmp_path / "again.json").read_text() == text

    tampered = json.loads(text)
    row2 = next(r for r in tampered["rows"] if r["row"] == "2")
    row2["expected"]["subdivision_diameter"] = 7
    golden.write_text(json.dumps(tampered, indent=2) + "\n")
    code, _, err = run_cli(capsys, "verify-table", "--golden", str(golden),
                           "-o", str(tmp_path / "third.json"))
    assert code == 1
    assert "2" in err


def test_verify_table_jobs_output_is_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code, _, _ = run_cli(capsys, "verify-table", "-o", str(a))
    assert code == 0
    code, _, _ = run_cli(capsys, "verify-table", "--jobs", "4", "-o", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
