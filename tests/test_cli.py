import json
import time

import pytest

from oracle import affine_plane_3
from steinergeom import (
    D_k, cycle_Ck, fano, fano_chain, to_gp_v1, to_ls_v1, to_mu_v1, LinearSpace, MuFunction,
)
from steinergeom import cli
from steinergeom.cli import main
from steinergeom.space import MAX_POINTS


@pytest.fixture
def fano_file(tmp_path):
    p = tmp_path / "fano.ls"
    p.write_text(to_ls_v1(fano()))
    return str(p)


@pytest.fixture
def mu1_file(tmp_path):
    p = tmp_path / "mu1.txt"
    p.write_text(to_mu_v1(MuFunction(1)))
    return str(p)


def test_validate_ok(fano_file, capsys):
    assert main(["validate", fano_file]) == 0
    assert "in K_0" in capsys.readouterr().out


def test_validate_json(fano_file, capsys):
    assert main(["validate", fano_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == 7 and payload["in_k0"] is True


def test_validate_rejects_garbage(tmp_path, capsys):
    p = tmp_path / "bad.ls"
    p.write_text("not a linear space\n")
    assert main(["validate", str(p)]) == 1


def test_delta_subset(fano_file, capsys):
    assert main(["delta", fano_file]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["delta", fano_file, "--subset", "0,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_icl_and_d(fano_file, capsys):
    assert main(["icl", fano_file, "--set", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0,1,2,3,4,5,6"
    assert main(["d", fano_file, "--set", "0,4"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_goodpairs(tmp_path, capsys):
    p = tmp_path / "line.ls"
    p.write_text(to_ls_v1(LinearSpace(3, [(0, 1, 2)])))
    assert main(["goodpairs", str(p), "--max-size", "3", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert all(r["code"] == "alpha" for r in rows)


def test_chi(tmp_path, capsys):
    M = tmp_path / "line4.ls"
    M.write_text(to_ls_v1(LinearSpace(4, [(0, 1, 2, 3)])))
    pair = tmp_path / "alpha.gp"
    pair.write_text(to_gp_v1(LinearSpace(3, [(0, 1, 2)]), [0, 1]))
    assert main(["chi", str(M), "--pair", str(pair), "--embed", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_amalgamate(tmp_path, mu1_file, capsys):
    F = tmp_path / "F.ls"
    F.write_text(to_ls_v1(LinearSpace(3, [(0, 1, 2)])))
    E = tmp_path / "E.ls"
    E.write_text(to_ls_v1(LinearSpace(3, [(0, 1, 2)])))
    assert main([
        "amalgamate", str(F), str(E), "--shared", "0,1", "--mu", mu1_file, "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "identified"
    assert payload["embedding"]["2"] == 2


@pytest.mark.parametrize("cmd", ["amalgamate", "build", "stats"])
def test_invalid_mu_exits_1(tmp_path, capsys, cmd):
    mu = tmp_path / "bad.mu"
    # a structure without lines passes the bounded check under any mu, so
    # only the mu validation can reject this run
    F = tmp_path / "F.ls"
    F.write_text(to_ls_v1(LinearSpace(3, [])))
    if cmd == "amalgamate":
        argv = ["amalgamate", str(F), str(F), "--shared", "0,1", "--mu", str(mu)]
    elif cmd == "stats":
        argv = ["stats", str(F), "--mu", str(mu)]
    else:
        argv = ["build", "--mu", str(mu), "--steps", "5", "--seed", "1", "--out", str(tmp_path / "t")]
    # below the lower bound, validate_mu rejects a mu; a negative value
    # is rejected on its row by the parser
    for alpha, message in (
        (0, "error: invalid mu: alpha value 0 < 1"),
        (-5, "error: line 1: alpha value '-5' is not an integer >= 0"),
    ):
        mu.write_text(to_mu_v1(MuFunction(alpha)))
        assert main(argv) == 1
        assert message in capsys.readouterr().err


def test_build_and_stats(tmp_path, mu1_file, capsys):
    out = tmp_path / "run.trace"
    assert main([
        "build", "--mu", mu1_file, "--steps", "80", "--seed", "3", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert text.startswith("trace v1\n")
    capsys.readouterr()

    ls = tmp_path / "built.ls"
    snap = text[text.index("linear-space v1"):]
    snap = snap[: snap.index("snapshot end")]
    ls.write_text(snap)
    assert main(["stats", str(ls), "--mu", mu1_file, "--bound", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []


def test_gallery_outputs(capsys):
    assert main(["gallery", "fano"]) == 0
    assert "points 7" in capsys.readouterr().out
    assert main(["gallery", "ck", "--k", "2"]) == 0
    assert "points 10" in capsys.readouterr().out
    assert main(["gallery", "dk", "--k", "1"]) == 0
    assert "points 7" in capsys.readouterr().out
    assert main(["gallery", "chain", "--k", "2"]) == 0
    assert "points 13" in capsys.readouterr().out


def test_gallery_chain_is_the_last_structure_of_the_chain(capsys):
    for k in (0, 1, 5):
        assert main(["gallery", "chain", "--k", str(k)]) == 0
        assert capsys.readouterr().out == to_ls_v1(fano_chain(k)[-1])


# one step past the cap: chain --k 21843 has 65536 points, ck and dk
# --k 16383 have 65534 and 65535
@pytest.mark.parametrize("kind, k", [("chain", 21844), ("ck", 16384), ("dk", 16384)])
def test_gallery_over_the_point_cap_is_a_size_limit(capsys, kind, k):
    assert main(["gallery", kind, "--k", str(k)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and f"more than {MAX_POINTS}" in out.err


@pytest.mark.parametrize("kind, make", [("ck", cycle_Ck), ("dk", D_k)])
def test_gallery_cycles_are_the_structures(capsys, kind, make):
    for k in (1, 2, 5):
        assert main(["gallery", kind, "--k", str(k)]) == 0
        assert capsys.readouterr().out == to_ls_v1(make(k).space)


@pytest.mark.parametrize("kind", ["ck", "dk"])
def test_gallery_cycles_of_8000_points_finish(capsys, kind):
    # the CLI prints the lines alone and computes no canonical code
    start = time.perf_counter()
    assert main(["gallery", kind, "--k", "2000"]) == 0
    assert time.perf_counter() - start < 20
    assert capsys.readouterr().out.startswith("linear-space v1\npoints 800")


def test_goodpairs_lists_no_alpha_below_its_size(fano_file, capsys):
    assert main(["goodpairs", fano_file, "--max-size", "2"]) == 0
    assert capsys.readouterr().out == "0 good pairs\n"


def test_goodpairs_refuses_a_negative_max_size(fano_file, capsys):
    assert main(["goodpairs", fano_file, "--max-size", "-5"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "max_size must be >= 0" in out.err


def test_gallery_cyclegraph(fano_file, capsys):
    assert main(["gallery", "cyclegraph", fano_file, "--pair", "0,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == [3, 4, 5, 6]
    assert payload["a_edges"] == [[3, 4], [5, 6]]


def test_gallery_cyclegraph_text(fano_file, capsys):
    assert main(["gallery", "cyclegraph", fano_file, "--pair", "0,1"]) == 0
    assert capsys.readouterr().out == "a 3 4\na 5 6\nb 3 5\nb 4 6\n"


def test_gallery_cyclegraph_without_edges(tmp_path, capsys):
    # points 3 and 4 lie on no line: the graph has vertices and no edges
    p = tmp_path / "line.ls"
    p.write_text("linear-space v1\npoints 5\nline 0 1 2\n")
    assert main(["gallery", "cyclegraph", str(p), "--pair", "0,1"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["gallery", "cyclegraph", str(p), "--pair", "0,1", "--json"]) == 0
    assert capsys.readouterr().out == '{"a_edges": [], "b_edges": [], "vertices": [3, 4]}\n'


@pytest.mark.parametrize("pair", [[], ["--pair", "0"], ["--pair", "0,1,2"]])
def test_gallery_cyclegraph_needs_a_pair(fano_file, capsys, pair):
    assert main(["gallery", "cyclegraph", fano_file, *pair]) == 2
    assert "needs --pair a,b" in capsys.readouterr().err


def test_gallery_cyclegraph_names_an_id_outside_the_points(fano_file, capsys):
    assert main(["gallery", "cyclegraph", fano_file, "--pair", "0,100"]) == 1
    assert "point 100 out of range 0..6" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--steps", "-2"], ["--steps", "10", "--template-max", "-1"]])
def test_build_refuses_negative_arguments(mu1_file, capsys, flag):
    assert main(["build", "--mu", mu1_file, "--seed", "0", "--out", "-", *flag]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be >= 0" in out.err


def test_convert_roundtrip(tmp_path, fano_file, capsys):
    assert main(["convert", "--to", "two-sorted", fano_file]) == 0
    inc_text = capsys.readouterr().out
    assert inc_text.startswith("points 7\n")
    inc = tmp_path / "fano.inc"
    inc.write_text(inc_text)
    assert main(["convert", "--to", "one-sorted", str(inc)]) == 0
    assert capsys.readouterr().out == to_ls_v1(fano())
    assert main(["convert", "--to", "pbd", fano_file]) == 0
    assert "lambda 1" in capsys.readouterr().out


def test_check_runs(capsys):
    assert main([
        "check", "submodular", "--trials", "20", "--seed", "1", "--max-points", "7",
    ]) == 0
    assert "0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("prop", ["submodular", "flat", "exchange", "matroid"])
def test_check_properties_hold(capsys, prop):
    assert main(["check", prop, "--trials", "25", "--seed", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"property": prop, "trials": 25, "violations": 0}


@pytest.mark.parametrize("flag,value,least", [("--max-points", "2", 3), ("--max-points", "-1", 3), ("--trials", "-1", 0)])
def test_check_refuses_arguments_out_of_range(capsys, flag, value, least):
    args = {"--trials": "3", "--max-points": "7", flag: value}
    assert main(["check", "submodular", "--seed", "1", *(x for kv in args.items() for x in kv)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"usage error: check needs {flag} >= {least}, not {value}\n"


@pytest.mark.parametrize("prop", ["submodular", "flat", "exchange", "matroid"])
def test_check_over_the_point_cap_is_a_size_limit(capsys, monkeypatch, prop):
    # refused before any structure is built
    def refuse(*args):
        raise AssertionError("built a structure")

    monkeypatch.setattr(cli, "random_space", refuse)
    monkeypatch.setattr(cli, "random_k0", refuse)
    argv = ["check", prop, "--trials", "1", "--seed", "0", "--max-points", str(MAX_POINTS + 1)]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == "" and f"more than {MAX_POINTS}" in out.err


def test_check_runs_zero_trials_and_three_points(capsys):
    assert main(["check", "submodular", "--trials", "0", "--seed", "1", "--max-points", "3"]) == 0
    assert capsys.readouterr().out == "0 violations\n"


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["icl"]) == 2


def test_size_limit_exit_code(tmp_path, capsys):
    # d has no size limit; the witness search of validate keeps
    # SEARCH_LIMIT, and three disjoint AG(2,3) have a 27-point least
    # delta-minimizer for it to search
    p = tmp_path / "big.ls"
    p.write_text("linear-space v1\npoints 30\n")
    assert main(["d", str(p), "--set", "0"]) == 0
    assert capsys.readouterr().out == "1\n"
    ag = affine_plane_3().lines
    p.write_text(to_ls_v1(LinearSpace(27, [tuple(9 * i + q for q in ln) for i in range(3) for ln in ag])))
    assert main(["validate", str(p)]) == 3
    assert "27 free points exceeds search limit 24" in capsys.readouterr().err


def test_stats_over_the_code_limit_exits_3(fano_file, mu1_file, capsys):
    assert main(["stats", fano_file, "--mu", mu1_file, "--bound", "17"]) == 3
    assert "max_size 17 exceeds code limit 16" in capsys.readouterr().err


def test_point_cap_exit_code(tmp_path, capsys):
    ls = tmp_path / "over.ls"
    ls.write_text(f"linear-space v1\npoints {MAX_POINTS + 1}\n")
    inc = tmp_path / "over.inc"
    inc.write_text(f"# one more than the cap\npoints {MAX_POINTS + 1}\n")
    # a count with more digits than int() reads
    long_inc = tmp_path / "long.inc"
    long_inc.write_text("# far over the cap\npoints " + "1" * 5001 + "\n")
    for argv in (["validate", str(ls)], ["d", str(ls), "--set", "0"],
                 ["convert", "--to", "one-sorted", str(inc)],
                 ["convert", "--to", "one-sorted", str(long_inc)]):
        assert main(argv) == 3
        assert "line 2:" in capsys.readouterr().err


def test_chi_refuses_an_image_outside_the_points(tmp_path, fano_file, capsys):
    pair = tmp_path / "alpha.gp"
    pair.write_text(to_gp_v1(LinearSpace(3, [(0, 1, 2)]), [0, 1]))
    assert main(["chi", fano_file, "--pair", str(pair), "--embed", "0,100"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "point 100" in out.err


def test_chi_embed_of_the_wrong_length_names_no_line(tmp_path, fano_file, capsys):
    # an argument, not a file row: the message carries no line number
    pair = tmp_path / "alpha.gp"
    pair.write_text(to_gp_v1(LinearSpace(3, [(0, 1, 2)]), [0, 1]))
    assert main(["chi", fano_file, "--pair", str(pair), "--embed", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --embed must list one image per base point\n"


@pytest.mark.parametrize(
    "cmd, ids, named",
    [("d", "+1,2", "'+1'"), ("icl", "1_0", "'1_0'"), ("d", "-1", "'-1'"), ("icl", "0,7", "point 7 ")],
)
def test_id_lists_read_ascii_digits_of_points_only(fano_file, capsys, cmd, ids, named):
    assert main([cmd, fano_file, f"--set={ids}"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and named in out.err


def test_amalgamate_refuses_a_shared_point_outside_F(tmp_path, capsys):
    F = tmp_path / "F.ls"
    F.write_text(to_ls_v1(LinearSpace(3, [(0, 1, 2)])))
    E = tmp_path / "E.ls"
    E.write_text(to_ls_v1(LinearSpace(6, [(0, 1, 2), (2, 3, 4)])))
    mu = tmp_path / "mu2.txt"
    mu.write_text(to_mu_v1(MuFunction(2)))
    assert main(["amalgamate", str(F), str(E), "--shared", "0,1,5", "--mu", str(mu)]) == 1
    assert "point 5 out of range 0..2" in capsys.readouterr().err


def test_id_lists_may_space_their_commas(fano_file, capsys):
    assert main(["delta", fano_file, "--subset", "0, 1, 2"]) == 0
    spaced = capsys.readouterr().out
    assert main(["delta", fano_file, "--subset", "0,1,2"]) == 0
    assert capsys.readouterr().out == spaced == "2\n"
