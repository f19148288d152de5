import json
import time

import pytest

from fphomalg.cli import main
from fphomalg.linalg import BigradedTable


def run(tmp_path, command, data, *extra, fmt="json"):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.txt"
    code = main([command, *extra, "--format", fmt, "-o", str(out), str(path)])
    text = out.read_text() if out.exists() else ""
    return code, text


GENS_X3 = [{"name": "x", "degree": 3}]


def test_free_w1_matches_worked_example(tmp_path):
    code, text = run(tmp_path, "free-w1", GENS_X3, "-p", "3", "-n", "11")
    assert code == 0
    report = json.loads(text)
    assert report["series"]["series"] == {
        "0": 1, "3": 1, "7": 1, "8": 1, "10": 1, "11": 1
    }


def test_free_lie_and_restricted(tmp_path):
    gens = [{"name": "x", "degree": 2}]
    code, text = run(tmp_path, "free-lie", gens, "-p", "3", "-n", "10")
    assert code == 0
    assert json.loads(text)["dims"]["dims"] == {"2": 1, "3": 1}
    code, text = run(tmp_path, "restricted", gens, "-p", "3", "-n", "8")
    assert code == 0
    assert json.loads(text)["dims"]["dims"] == {"2": 1, "3": 1, "7": 1}


def test_axioms_clean(tmp_path):
    gens = [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]
    code, text = run(tmp_path, "axioms", gens, "-p", "2", "--trials", "25")
    assert code == 0
    assert json.loads(text)["all_pass"]


def test_aq_worked_example(tmp_path):
    data = {
        "algebra": {"kind": "exterior", "generators": GENS_X3},
        "module": {"dims": {"3": 1}},
    }
    code, text = run(tmp_path, "aq", data, "-p", "3", "-n", "12", "--smax", "4")
    assert code == 0
    report = json.loads(text)
    assert report["parity"]["verdict"] == "even"
    got = {(r["s"], r["t"]): r["dim"] for r in report["table"]}
    assert got[(0, 0)] == 1 and got[(2, -6)] == 1


def test_ext_and_hochschild(tmp_path):
    data = {"algebra": {"kind": "exterior", "generators": GENS_X3}}
    code, text = run(tmp_path, "ext", data, "-p", "2", "--smax", "6")
    assert code == 0
    rows = json.loads(text)["table"]
    assert {"s": 6, "t": -18, "dim": 1} in rows
    data["module"] = {"dims": {"3": 1}}
    code, text = run(tmp_path, "hochschild", data, "-p", "2", "--smax", "4")
    assert code == 0
    assert json.loads(text)["routes_agree"]


def test_tor_and_bar(tmp_path):
    data = {"base": {"kind": "polynomial", "generators": [{"name": "u", "degree": 2}]}}
    code, text = run(tmp_path, "tor", data, "-p", "3", "-n", "8")
    assert code == 0
    report = json.loads(text)
    assert report["totals"] == {"0": 1, "1": 1} or report["totals"] == {0: 1, 1: 1}
    code, text = run(
        tmp_path, "bar",
        {"kind": "polynomial", "generators": [{"name": "u", "degree": 2}]},
        "-p", "3", "-n", "8",
    )
    assert code == 0


def test_diagram_commands_on_simplicial_input(tmp_path):
    data = {"vertices": ["a", "b"], "facets": [["a"], ["b"]], "degree": 2}
    code, text = run(tmp_path, "diagram-lim", data, "-p", "2", "-n", "6")
    assert code == 0
    report = json.loads(text)
    assert report["limit"]["dims"] == {"0": 1, "2": 2, "4": 2, "6": 2}
    code, text = run(tmp_path, "injective", data, "-p", "2", "-n", "6")
    assert code == 0
    assert json.loads(text)["injective"]


def test_stanley_reisner_and_invariants(tmp_path):
    data = {"vertices": ["a", "b"], "facets": [["a"], ["b"]], "degree": 2}
    code, text = run(tmp_path, "stanley-reisner", data, "-p", "2", "-n", "6")
    assert code == 0
    assert json.loads(text)["routes_agree"]
    action = {"p": 3, "matrices": [[[2, 0], [0, 2]]], "degrees": [2, 2]}
    code, text = run(tmp_path, "invariants", action, "-n", "12")
    assert code == 0
    assert json.loads(text)["series"]["series"] == {"0": 1, "4": 3, "8": 5, "12": 7}
    code, text = run(tmp_path, "lie-check", action, "-n", "12")
    assert code == 0
    assert json.loads(text)["verdict"] == "formality criteria satisfied"


def test_emss_preset_and_loops(tmp_path):
    code, text = run(tmp_path, "emss", {"preset": "diagonal-circle", "n": 3},
                     "-p", "2", "-n", "12")
    assert code == 0
    report = json.loads(text)
    assert report["hypotheses"]["to_x"]["surjective"]
    code, text = run(tmp_path, "loops", {"dims": {"2": 1}}, "-p", "3", "-n", "8")
    assert code == 0
    assert json.loads(text)["series"]["series"] == {"0": 1, "1": 1}


def test_obstruction_pass_and_fail(tmp_path):
    code, text = run(tmp_path, "obstruction", [{"s": 1, "t": 3, "dim": 2}])
    assert code == 0
    assert json.loads(text)["pass"]
    code, text = run(tmp_path, "obstruction", [{"s": 1, "t": 0, "dim": 1}])
    assert code == 0
    report = json.loads(text)
    assert not report["pass"]
    assert report["witnesses"] == [{"s": 1, "t": 0, "dim": 1}]


def test_exit_code_3_on_cross_check_mismatch(tmp_path, monkeypatch):
    # force the two free-W1 routes apart to exercise the reserved exit code
    import fphomalg.cli as cli_mod
    from fphomalg.linalg import HilbertSeries

    monkeypatch.setattr(
        cli_mod.w1, "free_w1_dims_via_sym_zeta",
        lambda gens, cap, p, wc=None: HilbertSeries({0: 999}, cap),
    )
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"name": "x", "degree": 2}]))
    assert main(["free-w1", "-p", "2", "-n", "6", str(path)]) == 3


def test_exit_code_2_on_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["free-w1", str(path)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["free-w1", str(missing)]) == 2
    # schema violation
    path2 = tmp_path / "neg.json"
    path2.write_text(json.dumps([{"name": "x", "degree": 0}]))
    assert main(["free-w1", str(path2)]) == 2


def test_exit_code_2_on_too_many_cochain_words(tmp_path):
    # Five exterior generators: Abar has 31 letters and --smax 4 needs 31^6
    # cochain words, refused before any word is built.
    gens = [{"name": n, "degree": d} for n, d in zip("abcde", (1, 3, 5, 7, 9))]
    data = {"algebra": {"kind": "exterior", "generators": gens}, "module": {"dims": {"3": 1}}}
    start = time.perf_counter()
    code, _ = run(tmp_path, "aq", data, "-p", "3", "-n", "12", "--smax", "4")
    assert code == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["free-lie", "restricted"])
def test_exit_code_2_on_too_many_lie_words(tmp_path, command):
    # Three degree-1 generators: 3^10 words of weight 10 in one degree,
    # refused before any tensor element is built.
    gens = [{"name": n, "degree": 1} for n in "xyz"]
    start = time.perf_counter()
    code, _ = run(tmp_path, command, gens, "-p", "2", "-n", "10", "--weight-cap", "10")
    assert code == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["free-lie", "restricted"])
@pytest.mark.parametrize("weight_cap", ["0", "-1"])
def test_weight_cap_below_one_rejected(tmp_path, command, weight_cap):
    gens = [{"name": "x", "degree": 2}]
    code, _ = run(tmp_path, command, gens, "-p", "3", "--weight-cap", weight_cap)
    assert code == 2


COSPAN = {
    "category": {"objects": [{"id": "z", "lambda": 0}, {"id": "x", "lambda": 1},
                             {"id": "y", "lambda": 1}],
                 "arrows": [{"id": "a", "src": "z", "dst": "x"},
                            {"id": "b", "src": "z", "dst": "y"}]},
    "values": {o: {"dims": {"2": 1}} for o in "zxy"},
    "maps": {f: {"degree": 0, "blocks": {"2": [[2]]}} for f in "ab"},
}


@pytest.mark.parametrize("p, want", [(0, 2), (1, 2), (4, 2), (1000003, 2), (3, 0)])
def test_vector_diagrams_need_a_prime(tmp_path, p, want):
    code, text = run(tmp_path, "diagram-lim", COSPAN, "-p", str(p), "-n", "6")
    assert code == want
    if want == 0:
        assert json.loads(text)["table"] == [{"s": 0, "t": 2, "dim": 1}]
    data = {"category": COSPAN["category"],
            "v_values": {o: {"dims": {"3": 1}} for o in "zxy"},
            "m_values": {o: {"dims": {"3": 1}} for o in "zxy"}}
    data["v_maps"] = data["m_maps"] = {f: {"blocks": {"3": [[1]]}} for f in "ab"}
    code, _ = run(tmp_path, "diagram-aq", data, "-p", str(p), "--smax", "1", "--qmax", "1")
    assert code == want


def test_csv_round_trip(tmp_path):
    data = {"algebra": {"kind": "exterior", "generators": GENS_X3}}
    code, text = run(tmp_path, "ext", data, "-p", "2", "--smax", "4", fmt="csv")
    assert code == 0
    table = BigradedTable.from_csv(text)
    code, jtext = run(tmp_path, "ext", data, "-p", "2", "--smax", "4", fmt="json")
    table2 = BigradedTable.from_json(json.loads(jtext)["table"])
    assert table == table2


def test_table_format_renders(tmp_path, capsys):
    data = {"algebra": {"kind": "exterior", "generators": GENS_X3}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(["ext", "-p", "2", "--smax", "2", "--format", "table", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "parity: even" in out


def test_determinism_given_seed(tmp_path):
    gens = [{"name": "x", "degree": 2}]
    _, a = run(tmp_path, "axioms", gens, "-p", "3", "--trials", "10", "--seed", "42")
    _, b = run(tmp_path, "axioms", gens, "-p", "3", "--trials", "10", "--seed", "42")
    assert a == b
