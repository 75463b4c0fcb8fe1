import dataclasses
import json
import time

import pytest

import rrlattice.cli as cli
import rrlattice.extremal as extremal
import rrlattice.rank as rank
from rrlattice.cli import main
from rrlattice.core import node_budget


@pytest.fixture()
def files(tmp_path):
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}))
    m322 = tmp_path / "m322.json"
    m322.write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1, 3], [0, 2, 2], [1, 2, 2]]}))
    # a regular digraph, not a multigraph (g_min 3, g_max 5)
    dg3 = tmp_path / "dg3.json"
    dg3.write_text(json.dumps(
        {"vertices": 3, "arcs": [[0, 1, 3], [0, 2, 1], [1, 0, 1], [1, 2, 3],
                                 [2, 0, 3], [2, 1, 1]]}))
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
    return {"k3": str(k3), "m322": str(m322), "dg3": str(dg3),
            "lat": str(lat), "mt": str(mt), "nri": str(nri), "rinu": str(rinu),
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


def test_rank_cross_checks_lattices_that_are_not_riemann_roch(files,
                                                               capsys):
    # the extremal formula holds on every lattice, also on one that is not
    # reflection invariant (nri) or not uniform (rinu)
    code, out = run(capsys, "rank", "--lattice", files["nri"],
                    "--divisor", "3 -1 2 1")
    assert code == 0
    assert out == ("r(D) = 2  (degree 5)\n"
                   "bruteforce witness: (0, 0, 2, 1)\n"
                   "extremal rank: 2\n"
                   "methods agree\n")
    code, out = run(capsys, "rank", "--lattice", files["rinu"],
                    "--divisor", "3 -1 2 1")
    assert code == 0
    assert out == ("r(D) = 1  (degree 5)\n"
                   "bruteforce witness: (0, 0, 2, 0)\n"
                   "extremal rank: 1\n"
                   "methods agree\n")


def test_rank_cross_checks_a_regular_digraph(files, capsys):
    code, out = run(capsys, "rank", "--graph", files["dg3"],
                    "--divisor", "3 2 1")
    assert code == 0
    assert "r(D) = 2  (degree 6)" in out
    assert "extremal rank: 2" in out
    assert "methods agree" in out


def test_rank_method_disagreement_exits_1(files, capsys, monkeypatch):
    real = cli.rank_extremal

    def off_by_one(*args, **kwargs):
        found = real(*args, **kwargs)
        return dataclasses.replace(found, rank=found.rank + 1)

    monkeypatch.setattr(cli, "rank_extremal", off_by_one)
    code, out = run(capsys, "rank", "--graph", files["k3"],
                    "--divisor", "0 0 0")
    assert code == 1
    assert "METHOD DISAGREEMENT: bruteforce 0 vs extremal 1" in out
    assert "methods agree" not in out
    code, out = run(capsys, "rank", "--graph", files["k3"],
                    "--divisor", "0 0 0", "--format", "json")
    assert code == 1
    obj = json.loads(out)
    assert obj["agreement"] is False
    assert obj["rank"] == 0 and obj["extremal"]["rank"] == 1


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
    # canonical_point is deg - 2 on every multigraph, so no re-check
    assert "matches_graph_formula" not in obj
    assert "vertex_degree_minus_two" not in obj


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


@pytest.mark.parametrize("option", [["--window", "0"], ["--window", "-1"],
                                    ["--scale", "-5"], ["--scale", "nan"],
                                    ["--scale", "inf"]])
def test_render_rejects_degenerate_window_and_scale(files, capsys, option):
    # a zero or negative viewBox, or nan coordinates, is not an SVG
    code = main(["render", "--lattice", files["mt"]] + option)
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:"), captured.err
    assert "<svg" not in captured.out


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


def test_verify_rr_lattice_charges_samples_before_searching(files, capsys,
                                                           monkeypatch):
    # the a2 example: 1,450 samples, so 2,900 coset searches over one class,
    # charged after the scan and the reflection search and before any rank
    with node_budget(10**9) as meter:
        L = cli._load_lattice(files["lat"])
        extremal.canonical_point(extremal.extremal_set_general(L), L)
    calls = []
    monkeypatch.setattr(rank, "rank_extremal",
                        lambda *args: calls.append(args))
    code = main(["verify-rr", "--lattice", files["lat"],
                 "--budget", str(meter.spent + 2900 - 1)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "resource budget exceeded: sample check: 2900 coset searches for "
        "1450 samples")
    assert not calls


# -- the exit-code contract ------------------------------------------------------


@pytest.fixture()
def contract_files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return {
        "k3": write("k3.json", json.dumps(
            {"vertices": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]})),
        "k12": write("k12.json", json.dumps(
            {"vertices": 12, "edges": [[i, j, 1] for i in range(12)
                                       for j in range(i + 1, 12)]})),
        "bad_graph": write("bad.json", json.dumps({"vertices": 3})),
        "lat": write("lat.txt", "3\n3 0 -3\n0 2 -2\n"),
        # index 10^6
        "huge_lat": write("huge.txt", "3\n1000 0 -1000\n0 1000 -1000\n"),
        "bad_lat": write("bad.txt", "3\n1 2\n"),
        "simplex": write("simplex.json", json.dumps(
            [["1/2", "1/2"], ["3/4", "1/2"], ["1/2", "3/4"]])),
        "bad_simplex": write("bad_simplex.json", json.dumps(
            [["1/0", "1"], [1, 2], [3, 4]])),
        "huge_simplex": write("huge_simplex.json", json.dumps(
            [["1/3", "1/3"], ["1000000/3", "1/3"], ["1/3", "1000000/3"]])),
    }


ZEROS12 = " ".join(["0"] * 12)
# (subcommand, valid, malformed, huge) argument lists; names in braces are
# contract_files entries
CONTRACT = [
    ("rank", ["--graph", "{k3}", "--divisor", "0 0 0"],
     ["--lattice", "{lat}", "--divisor", "a b c"],
     ["--graph", "{k12}", "--divisor", ZEROS12]),
    ("genus", ["--graph", "{k3}"], ["--graph", "{bad_graph}"],
     ["--lattice", "{huge_lat}"]),
    ("extremals", ["--lattice", "{lat}"], ["--lattice", "{bad_lat}"],
     ["--graph", "{k12}"]),
    ("canonical", ["--graph", "{k3}"], ["--graph", "{bad_graph}"],
     ["--lattice", "{huge_lat}"]),
    ("classify", ["--lattice", "{lat}"], ["--lattice", "{bad_lat}"],
     ["--graph", "{k12}"]),
    ("verify-rr", ["--graph", "{k3}"], ["--graph", "{bad_graph}"],
     ["--lattice", "{huge_lat}"]),
    ("picard", ["--graph", "{k3}"], ["--lattice", "{bad_lat}"],
     ["--lattice", "{huge_lat}"]),
    ("chipfire", ["--graph", "{k3}", "--chips", "-1 1 1"],
     ["--graph", "{k3}", "--chips", "-1 1"],
     ["--graph", "{k12}", "--chips", "-1000000000 " + ZEROS12[2:]]),
    ("a2", ["--lattice", "{lat}"], ["--lattice", "{bad_lat}"],
     ["--lattice", "{huge_lat}"]),
    ("reduce-simplex", ["--simplex", "{simplex}", "--check"],
     ["--simplex", "{bad_simplex}", "--check"],
     ["--simplex", "{huge_simplex}", "--check"]),
    ("render", ["--lattice", "{lat}"],
     ["--lattice", "{lat}", "--layers", "arrangement", "--t", "1/0"],
     ["--lattice", "{huge_lat}"]),
]


@pytest.mark.parametrize("kind", ["valid", "malformed", "huge"])
@pytest.mark.parametrize("case", CONTRACT, ids=[c[0] for c in CONTRACT])
def test_cli_exit_code_contract(contract_files, capsys, case, kind):
    # exit 0, 1 or 2 and never a traceback: an exception escaping main()
    # is what the console script would print as one
    command, *inputs = case
    args = inputs[("valid", "malformed", "huge").index(kind)]
    argv = [command] + [a.format(**contract_files) for a in args]
    code = main(argv + ["--budget", "100000"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if kind == "valid":
        assert code == 0, err
    elif kind == "malformed":
        assert code == 2 and err.startswith("error:"), err
    else:
        assert code in (0, 2), err


@pytest.mark.parametrize("source", [["--graph", "{k12}"],
                                    ["--lattice", "{huge_lat}"]])
def test_extremal_enumerations_stop_at_the_budget(contract_files, capsys,
                                                  source):
    # K12 has 12! vertex orders and the lattice 10^6 classes per degree;
    # both are charged against the budget before any is walked
    start = time.perf_counter()
    code = main(["extremals"] + [a.format(**contract_files) for a in source]
                + ["--budget", "100000"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr().err.startswith("resource budget exceeded:")


def test_verify_rr_refuses_an_over_budget_sample_plan(tmp_path, capsys):
    # K7: 16,807 classes in each of 29 degrees plus 50 random divisors,
    # two ranks each over 720 classes; refused before any rank, where the
    # whole check would take hours
    path = tmp_path / "k7.json"
    path.write_text(json.dumps(
        {"vertices": 7, "edges": [[i, j, 1] for i in range(7)
                                  for j in range(i + 1, 7)]}))
    start = time.perf_counter()
    code = main(["verify-rr", "--graph", str(path), "--budget", "100000"])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "resource budget exceeded: sample check: 701932320 coset searches "
        "for 487453 samples")


def test_extremals_on_a_rank_four_lattice(tmp_path, capsys):
    # the K5 Laplacian lattice; the bare scan used to stop at rank 3
    path = tmp_path / "k5.txt"
    path.write_text("5\n" + "".join(
        " ".join("4" if i == j else "-1" for j in range(5)) + "\n"
        for i in range(4)))
    code, out = run(capsys, "extremals", "--lattice", str(path))
    assert code == 0
    assert out.startswith("critical classes: 24\n")


def test_seed_is_an_option_of_verify_rr_only(files, capsys):
    code, out = run(capsys, "verify-rr", "--graph", files["m322"],
                    "--seed", "3")
    assert code == 0 and "ok: True" in out
    assert main(["genus", "--graph", files["m322"], "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_fractional_multiplicity_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1, 1.5], [1, 2, 2.7]]}))
    code = main(["genus", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:"), err
    assert "Traceback" not in err


def test_vertex_count_alone_does_not_set_the_cost(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"vertices": 100_000, "edges": [[0, 1, 1]]}))
    start = time.perf_counter()
    code = main(["genus", "--graph", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:"), err
    assert "connected" in err
    assert time.perf_counter() - start < 1.0


def test_graph_orders_are_refused_before_the_lattice_is_built(tmp_path,
                                                              capsys):
    # a path on 1,000 vertices: the 1000! orders are refused before the
    # Laplacian lattice's HNF, which alone takes seconds at this size
    path = tmp_path / "path1000.json"
    path.write_text(json.dumps(
        {"vertices": 1000, "edges": [[i, i + 1, 1] for i in range(999)]}))
    start = time.perf_counter()
    code = main(["genus", "--graph", str(path), "--budget", "100000"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "resource budget exceeded: order enumeration: 1000! orders")


def test_picard_charges_the_hnf_to_the_budget(tmp_path, capsys):
    # the same path: its HNF makes about 500,000 row operations, and those
    # of the first pass and the first pivots of the second spend the budget
    path = tmp_path / "path1000.json"
    path.write_text(json.dumps(
        {"vertices": 1000, "edges": [[i, i + 1, 1] for i in range(999)]}))
    start = time.perf_counter()
    code = main(["picard", "--graph", str(path), "--budget", "10000"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert capsys.readouterr().err == (
        "resource budget exceeded: HNF row operations exceed the work "
        "budget 10000 (9909 units spent before)\n")


def test_extremals_list_representatives_only(files, capsys):
    code, out = run(capsys, "extremals", "--graph", files["k3"])
    assert code == 0
    assert "  rep (-1, 0, 1)  degree 0\n" in out
    code, out = run(capsys, "extremals", "--graph", files["k3"],
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["classes"][0] == {"representative": [-1, 0, 1],
                                             "degree": 0}


def test_classify_charges_the_cell_walk_to_the_budget(tmp_path, capsys):
    # the A_2 root lattice: its HNF (one row operation), its
    # scan (2 class tests and 2 walk nodes) and its reflection search (1
    # class point and 2 reductions) fit the budget; the cell walk's 3!
    # vertex steps do not, and it is refused before it starts
    path = tmp_path / "a2root.txt"
    path.write_text("3\n1 -1 0\n0 1 -1\n")
    code = main(["classify", "--lattice", str(path), "--budget", "12"])
    assert code == 2
    assert capsys.readouterr().err == (
        "resource budget exceeded: Voronoi cell walk: 3! vertex steps "
        "exceed the work budget 12 (8 units spent before)\n")


def test_classify_walks_k8_within_a_small_budget(tmp_path, capsys):
    # K8: 8! = 40,320 orders, 27,887 reflection reductions and 40,320 cell
    # vertex steps, 108,863 units with the HNF, within --budget 110000
    path = tmp_path / "k8.json"
    path.write_text(json.dumps(
        {"vertices": 8,
         "edges": [[i, j, 1] for i in range(8) for j in range(i + 1, 8)]}))
    start = time.perf_counter()
    code, out = run(capsys, "classify", "--graph", str(path),
                    "--budget", "110000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert "strongly reflection invariant: True\n" in out
