import hashlib
import json

import pytest

from locdt.cli import main
from locdt.harness import report_to_json, run_case_by_id


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


def test_recipe_full_is_the_default_and_unknown_recipe_exit2(capsys):
    base = ("check-ldt", "petersen", "--s", "2", "--format", "tsv")
    code, default, _ = run_cli(capsys, *base)
    assert code == 0
    assert run_cli(capsys, *base, "--recipe", "full")[:2] == (0, default)
    # a list value is one TSV field holding its JSON text
    assert '\nrepresentatives\t[{"vertex": 0, ' in default
    # an unknown recipe is a bad parameter, rejected by the parser
    with pytest.raises(SystemExit) as exc:
        main([*base, "--recipe", "nope"])
    assert exc.value.code == 2


def test_check_ldt_bad_generators_exit4(tmp_path, capsys):
    gens = tmp_path / "bad.txt"
    gens.write_text("10 1\n1 0 2 3 4 5 6 7 8 9\n")
    code, _, err = run_cli(capsys, "check-ldt", "petersen", "--gens", str(gens),
                           "--s", "1")
    assert code == 4


@pytest.mark.parametrize("subdivide", [(), ("--subdivide",)], ids=["base", "lifted"])
def test_check_ldt_tampered_generator_file_exit4(tmp_path, capsys, subdivide):
    """Two images swapped in one generator of an ``aut -o`` file leave a
    permutation that is no automorphism.  A group read from a file records
    no graph, so it is checked on both paths: on W(3,2) by
    check_local_sdt, and on S(W(3,2)) by the lift, which rejects it."""
    good, bad = tmp_path / "g.txt", tmp_path / "bad.txt"
    assert run_cli(capsys, "aut", "w3", "--q", "2", "-o", str(good))[0] == 0
    header, first, *rest = good.read_text().splitlines()
    a, b, *images = first.split()
    bad.write_text("\n".join([header, " ".join([b, a, *images]), *rest]) + "\n")
    code, out, err = run_cli(capsys, "check-ldt", "w3", "--q", "2",
                             "--gens", str(bad), "--s", "8", *subdivide)
    assert code == 4
    assert out == "" and "error" in err


@pytest.mark.parametrize(
    "text",
    ["x 1\n1 0\n", "2 1 3\n1 0\n", "2 1\n0 z\n", "3 1\n1 0\n"],
    ids=["header-not-int", "header-three-fields", "row-not-int", "row-short"],
)
def test_check_ldt_malformed_generator_file_exit4(tmp_path, capsys, text):
    gens = tmp_path / "bad.txt"
    gens.write_text(text)
    code, out, err = run_cli(capsys, "check-ldt", "kn", "--n", "2",
                             "--gens", str(gens), "--s", "1")
    assert code == 4
    assert out == "" and "error" in err


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


def test_check_arc_deep_cycle(capsys):
    code, out, _ = run_cli(capsys, "check-arc", "cycle", "8", "--s", "3000")
    assert code == 0
    rep = json.loads(out)
    assert (rep["arc_count"], rep["orbit_count"]) == (16, 1)


def test_check_arc_cap_exit3(capsys):
    code, out, _ = run_cli(capsys, "check-arc", "petersen", "--s", "3", "--arc-cap", "119")
    assert code == 3
    assert out == ""


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
    """A group read from a file has no known order, so its chain is built
    blind; the report is byte-equal to the one from the search's group."""
    gens = tmp_path / "gens.txt"
    for graph, s in ((["petersen"], "6"), (["w3", "--q", "2"], "8")):
        code, out, _ = run_cli(capsys, "aut", *graph, "-o", str(gens))
        assert code == 0
        query = ["check-ldt", *graph, "--s", s, "--subdivide"]
        code, out, _ = run_cli(capsys, *query, "--gens", str(gens))
        assert code == 0
        assert json.loads(out)["verdict"] is True
        assert run_cli(capsys, *query) == (0, out, "")


def test_check_ldt_trivial_group_fails(tmp_path, capsys):
    gens = tmp_path / "trivial.txt"
    gens.write_text("10 0\n")
    code, out, _ = run_cli(capsys, "check-ldt", "petersen", "--gens", str(gens),
                           "--s", "1")
    assert code == 1
    assert json.loads(out)["verdict"] is False


# sha256 of the default verify-table report: a change that moves any report
# byte fails here, and one that means to must update the hash and say why
VERIFY_TABLE_SHA256 = "1032e811590003df553dc8bce41e6f4436c3eee120ada96a6ac8c5efb268df3c"
# sha256 of the row-7 report (the hexagon H(3)), serialised as verify-table
# writes it
HEXAGON_ROW_SHA256 = "71c839dc600a46fff222a0ef4be474180060d36fc2e3882fc04b77b765e09f87"


# sha256 of `analyze kbip 1 3` (a tree, so girth and Moore bound are null) in
# each output format
ANALYZE_TREE_SHA256 = {
    "json": "d75a7971c0d6cf64339ee64b75ecf43291d7d2888a71efc4e141599ebc7b8459",
    "tsv": "2cbb76cf305c6fc0ce0bb54dd1b47f6e11fbfec66a80cde794e4a463e0650ea0",
}


def test_analyze_tree_report_is_pinned(capsys):
    for fmt, pinned in ANALYZE_TREE_SHA256.items():
        code, out, _ = run_cli(capsys, "analyze", "kbip", "1", "3", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pinned


def test_verify_table_cli_and_golden(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify-table", "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    rep = json.loads(text)
    assert rep["verdict"] is True
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == VERIFY_TABLE_SHA256

    # the golden runs test the comparison and its exit codes, so they reuse
    # the report; test_verify_table_jobs_output_is_identical makes a second
    # real run against the same digest
    monkeypatch.setattr(
        "locdt.cli.verify_table", lambda **kwargs: json.loads(text))
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


def test_hexagon_row_report_is_pinned():
    report = run_case_by_id("7", include_hexagon=True)
    assert report["passed"]
    digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert digest == HEXAGON_ROW_SHA256


def test_verify_table_jobs_output_is_identical(tmp_path, capsys):
    # the serial bytes are pinned to the same digest by
    # test_verify_table_cli_and_golden
    out = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify-table", "--jobs", "4", "-o", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_TABLE_SHA256
