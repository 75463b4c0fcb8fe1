import json

import pytest

import rrlattice.extremal as extremal
from rrlattice.cli import main


@pytest.fixture()
def files(tmp_path):
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}))
    m322 = tmp_path / "m322.json"
    m322.write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1, 3], [0, 2, 2], [1, 2, 2]]}))
    lat = tmp_path / "a2-example.txt"
    lat.write_text("3\n7 -7 0\n-3 11 -8\n")
    mt = tmp_path / "mt.txt"
    mt.write_text("3\n3 0 -3\n0 2 -2\n")
    # index 11, not reflection invariant
    nri = tmp_path / "nri.txt"
    nri.write_text("4\n2 0 1 -3\n1 2 1 -4\n2 -1 -2 1\n")
    # reflection invariant, not uniform (g_min 3, g_max 4)
    rinu = tmp_path / "rinu.txt"
    rinu.write_text("4\n-2 2 2 -2\n2 0 1 -3\n-2 1 -2 3\n")
    # index 10,000,003, with a basis of very unequal lengths
    thin = tmp_path / "thin.txt"
    thin.write_text("3\n1 10000000 -10000001\n-1 3 -2\n")
    simplex = tmp_path / "simplex.json"
    simplex.write_text(json.dumps([["1/2", "1/2"], ["3/4", "1/2"],
                                   ["1/2", "3/4"]]))
    return {"k3": str(k3), "m322": str(m322), "lat": str(lat),
            "mt": str(mt), "nri": str(nri), "rinu": str(rinu),
            "thin": str(thin),
            "simplex": str(simplex), "tmp": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rank_example(files, capsys):
    code, out = run(capsys, "rank", "--graph", files["k3"],
                    "--divisor", "0 0 0")
    assert code == 0
    assert "r(D) = 0" in out
    assert "methods agree" in out


def test_rank_lattice_example(files, capsys):
    code, out = run(capsys, "rank", "--lattice", files["lat"],
                    "--divisor", "0 0 0")
    assert code == 0
    assert out == ("r(D) = 0  (degree 0)\n"
                   "bruteforce witness: (0, 0, 1)\n"
                   "extremal rank: 0\n"
                   "methods agree\n")


def test_rank_lattice_without_extremal_formula(files, capsys):
    # the formula needs a uniform, reflection invariant lattice
    code, out = run(capsys, "rank", "--lattice", files["nri"],
                    "--divisor", "3 -1 2 1")
    assert code == 0
    assert out == "r(D) = 2  (degree 5)\nbruteforce witness: (0, 0, 2, 1)\n"
    code, out = run(capsys, "rank", "--lattice", files["rinu"],
                    "--divisor", "3 -1 2 1")
    assert code == 0
    assert out == "r(D) = 1  (degree 5)\nbruteforce witness: (0, 0, 2, 0)\n"


def test_verify_rr_not_reflection_invariant(files, capsys):
    code = main(["verify-rr", "--lattice", files["nri"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not reflection invariant" in captured.err


def test_verify_rr_weak_lattice(files, capsys):
    code, out = run(capsys, "verify-rr", "--lattice", files["rinu"])
    assert code == 0
    assert out == ("checked 120 divisors\n"
                   "g_min = 3, g_max = 4\n"
                   "K = (-2, 0, -5, 12)\n"
                   "ok: True\n")


def test_verify_rr_example(files, capsys):
    code, out = run(capsys, "verify-rr", "--graph", files["m322"])
    assert code == 0
    assert "g = 5" in out
    assert "K = (3, 3, 2)" in out
    assert "ok: True" in out


def test_classify_example(files, capsys):
    code, out = run(capsys, "classify", "--lattice", files["lat"],
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["uniform"] is True
    assert obj["reflection_invariant"] is True
    assert obj["strongly_reflection_invariant"] is False


def test_genus_and_picard(files, capsys):
    code, out = run(capsys, "genus", "--lattice", files["lat"],
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["g_min"] == 13
    code, out = run(capsys, "picard", "--graph", files["m322"],
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["cardinality"] == 16


def test_canonical(files, capsys):
    code, out = run(capsys, "canonical", "--graph", files["m322"],
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["K"] == [3, 3, 2]
    assert obj["matches_graph_formula"] is True


def test_a2_subcommand(files, capsys):
    code, out = run(capsys, "a2", "--lattice", files["mt"],
                    "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["multi_tree"] is True
    assert obj["strong"] is True
    assert obj["digraph_basis"] == [[3, 0, -3], [0, 2, -2], [-3, -2, 5]]


def test_a2_thin_lattice_hits_budget(files, capsys):
    code = main(["a2", "--lattice", files["thin"], "--budget", "100000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    # an uncaught error (a traceback from the console script) fails here
    assert captured.err.startswith("resource budget exceeded:")


def test_chipfire_subcommand(files, capsys):
    code, out = run(capsys, "chipfire", "--graph", files["k3"],
                    "--chips", "-1 1 1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["winnable"] is True
    assert obj["script"] == [1, 2]
    assert obj["end"] == [1, 0, 0]


def test_reduce_simplex_subcommand(files, capsys):
    code, out = run(capsys, "reduce-simplex", "--simplex", files["simplex"],
                    "--check", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["equivalence_holds"] is True
    assert obj["divisor_in_sigma"] is True


def test_render_subcommand(files, capsys):
    out_file = files["tmp"] / "pic.svg"
    code, _ = run(capsys, "render", "--lattice", files["mt"],
                  "--window", "4", "--out", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_json_deterministic(files, capsys):
    _, a = run(capsys, "extremals", "--graph", files["m322"],
               "--format", "json")
    _, b = run(capsys, "extremals", "--graph", files["m322"],
               "--format", "json")
    assert a == b


def test_usage_errors(files, capsys):
    code, _ = run(capsys, "rank", "--graph", files["k3"], "--divisor", "0 0")
    assert code == 2
    code, _ = run(capsys, "picard", "--lattice",
                  str(files["tmp"] / "missing.txt"))
    assert code == 2
    assert main(["rank", "--divisor", "0 0 0"]) == 2  # no input source
    capsys.readouterr()


def test_verify_rr_searches_reflections_once(files, capsys, monkeypatch):
    calls = []
    search = extremal._reflections

    def counted(points, canon):
        calls.append(len(points))
        return search(points, canon)

    monkeypatch.setattr(extremal, "_reflections", counted)
    for source in (["--graph", files["m322"]], ["--lattice", files["lat"]]):
        calls.clear()
        code, out = run(capsys, "verify-rr", *source)
        assert code == 0 and "ok: True" in out
        assert len(calls) == 1, source
