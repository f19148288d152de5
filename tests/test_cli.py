import itertools
import json
import time
from collections import Counter

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


def test_tor_of_an_odd_exterior_algebra_on_both_sides(tmp_path):
    # Tor^A(A, A) = A in row 0; the two-sided chains are a complex only with
    # the sign of d passing the left monomial and g sym - sym g on every
    # level of the odd exterior strands
    data = {"base": {"kind": "exterior", "generators": [{"name": "x", "degree": 1},
                                                        {"name": "y", "degree": 3}]},
            "left": "id", "right": "id"}
    code, text = run(tmp_path, "tor", data, "-p", "3", "-n", "8")
    assert code == 0
    rows = {(r["s"], r["t"], r["dim"]) for r in json.loads(text)["table"]}
    assert rows == {(0, t, 1) for t in (0, 1, 3, 4)}


def test_bar_with_many_levels_keeps_its_table(tmp_path):
    # 6 letters and 31 word lengths: a word code in base 6 would need
    # 6^31 (about 1.3e24) values, past int64; trie offsets stay below the
    # number of words.  The table is that of Tor over k[y] (x) Lambda[x].
    data = {"kind": "mixed", "exterior": ["x"],
            "generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 10}]}
    code, text = run(tmp_path, "bar", data, "-p", "3", "-n", "30", "--smax", "8")
    assert code == 0
    got = {(r["s"], r["t"]): r["dim"] for r in json.loads(text)["table"]}
    assert got == {(s, s): 1 for s in range(31)} | {(s, s + 9): 1 for s in range(1, 22)}


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


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dims", [{"2": 1}, {"2": 1, "4": 1}, {"2": 2}, {"4": 1, "6": 1},
                                  {"2": 1, "6": 2}, {"2": 2, "4": 1}])
def test_loops_answers_every_cap_with_the_exterior_series(tmp_path, p, dims):
    # the exterior algebra on sV, one class (|S|, sum S) per set S of
    # generators; a class of total degree t - s is seen only if t <= cap,
    # so the series runs to cap if every class of total degree at most cap
    # is seen, and else to the last class before the first one unseen
    degrees = [int(d) for d, n in dims.items() for _ in range(n)]
    classes = [(len(S), sum(S)) for k in range(len(degrees) + 1)
               for S in itertools.combinations(degrees, k)]
    for cap in range(11):
        code, text = run(tmp_path, "loops", {"dims": dims}, "-p", str(p), "-n", str(cap))
        assert code == 0, (cap, text)
        unseen = [t - s for s, t in classes if t > cap and t - s <= cap]
        top = max(t - s for s, t in classes if t - s < min(unseen)) if unseen else cap
        series = Counter(str(t - s) for s, t in classes if t - s <= top)
        assert json.loads(text)["series"] == {"cap": top, "series": series}, cap


def test_loops_window_on_u2_u4(tmp_path):
    # total degrees 0, 1, 3 and 4 at internal degrees 0, 2, 4 and 6
    caps = {}
    for cap in range(7):
        code, text = run(tmp_path, "loops", {"dims": {"2": 1, "4": 1}}, "-p", "3", "-n", str(cap))
        assert code == 0
        caps[cap] = json.loads(text)["series"]["cap"]
    assert caps == {0: 0, 1: 0, 2: 2, 3: 1, 4: 3, 5: 3, 6: 6}


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


def stepping_tower(d, w, p, degree_cap, weight_cap):
    # a faulty restriction tower that also steps even degrees at odd p
    i = 0
    while d <= degree_cap and (weight_cap is None or w <= weight_cap):
        yield i, d, w
        i, d, w = i + 1, p * d - p + 1, p * w


def test_free_w1_closure_check_catches_a_tower_fault(tmp_path, monkeypatch):
    # both series routes walk the tower and agree on wrong dimensions; the
    # closure oracle does not walk it
    from fphomalg import freelie, w1

    gens = [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]
    code, text = run(tmp_path, "free-w1", gens, "-p", "3", "-n", "14")
    assert code == 0 and json.loads(text)["series"]["series"]["4"] == 2
    monkeypatch.setattr(w1, "restriction_tower", stepping_tower)
    monkeypatch.setattr(freelie, "restriction_tower", stepping_tower)
    assert w1.free_w1_dims(gens, 14, 3) == w1.free_w1_dims_via_sym_zeta(gens, 14, 3)
    assert w1.free_w1_dims(gens, 14, 3).nonzero()[4] == 3
    code, _ = run(tmp_path, "free-w1", gens, "-p", "3", "-n", "14")
    assert code == 3
    # past MAX_GENERATORS the check runs on the first four generators
    code, _ = run(tmp_path, "free-w1", GENS_5, "-p", "3", "-n", "8")
    assert code == 3


GENS_5 = [{"name": c, "degree": d} for c, d in zip("abcde", (2, 3, 4, 5, 6))]


@pytest.mark.parametrize("gens,series", [
    (GENS_5, {"0": 1, "2": 1, "3": 2, "4": 3, "5": 5, "6": 10, "7": 21, "8": 37}),
    ([], {"0": 1}),
])
def test_free_w1_closure_check_refuses_no_input_the_series_takes(tmp_path, gens, series):
    # the closure oracle takes 1-4 generators; free-w1 takes more, and none
    code, text = run(tmp_path, "free-w1", gens, "-p", "3", "-n", "8")
    assert code == 0
    assert json.loads(text) == {"routes_agree": True,
                                "series": {"cap": 8, "series": series}}


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
    # Five exterior generators: at --smax 4 the cochain differential from
    # (4, -54) is 718,585 x 26,700 cells, refused before any word is built.
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


@pytest.mark.parametrize("degree, caps, message", [
    (70, ("-n", "80"), "degree cap 80 is over 64"),
    (2, ("-n", "30", "--weight-cap", "25"), "weight cap 25 is over 20"),
])
def test_restricted_refusal_names_the_cap_that_is_over(tmp_path, capsys, degree, caps,
                                                        message):
    code, text = run(tmp_path, "restricted", [{"name": "x", "degree": degree}], "-p", "3", *caps)
    assert code == 2 and text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, data, cap", [
    # two degree-2 and one degree-4 polynomial generators: at cap 18 the bar
    # differential from (4, 18) is 4,446 x 13,856 (61.6M cells), refused
    # before either route runs
    ("loops", {"dims": {"2": 2, "4": 1}}, "18"),
    # exterior on (x1, y3): at cap 24 the largest bar differential is
    # 9,339 x 9,295 (86.8M cells)
    ("bar", {"algebra": {"kind": "exterior", "generators": [
        {"name": "x", "degree": 1}, {"name": "y", "degree": 3}]}}, "24"),
])
def test_exit_code_2_on_too_many_bar_words(tmp_path, capsys, command, data, cap):
    start = time.perf_counter()
    code, _ = run(tmp_path, command, data, "-p", "3", "-n", cap)
    assert code == 2
    assert "bar differential" in capsys.readouterr().err
    assert time.perf_counter() - start < 2.0


def test_aq_refusal_names_the_aq_row_and_the_largest_smax_that_fits(tmp_path, capsys):
    # aq --smax 9 reads HH^10, whose cochain differential from level 10 in
    # map degree -25 is 15,642 x 5,680 (88.8M cells); --smax 8 fits
    data = {"algebra": {"kind": "exterior", "generators": [
        {"name": "x", "degree": 1}, {"name": "y", "degree": 3}]}, "module": {"dims": {"3": 1}}}
    start = time.perf_counter()
    code, _ = run(tmp_path, "aq", data, "-p", "3", "--smax", "9")
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid input: the Hochschild cochain differential from level 10 in map degree -25, "
        "which aq row 9 needs, is 15642 x 5680, over the budget of 50000000 cells; "
        "--smax 8 is the largest that fits\n")
    assert time.perf_counter() - start < 2.0


def test_diagram_aq_refusal_names_the_q_table_and_the_largest_qmax_that_fits(tmp_path, capsys):
    # diagram-aq reads its cochains to level --qmax + 2, whatever --smax is:
    # at --qmax 3 the differential from level 4 in map degree -30 is 48,474
    # x 3,016 (146M cells), which q = 3 needs first, and --qmax 2 answers
    data = {"category": {"objects": [{"id": "a", "lambda": 0}], "arrows": []},
            "v_values": {"a": {"dims": {"1": 2, "5": 2}}}, "m_values": {"a": {"dims": {"3": 1}}}}
    start = time.perf_counter()
    code, _ = run(tmp_path, "diagram-aq", data, "-p", "3", "--smax", "1", "--qmax", "3")
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid input: the Hochschild cochain differential from level 4 in map degree -30, "
        "which diagram-aq table q = 3 needs, is 48474 x 3016, over the budget of 50000000 "
        "cells; --qmax 2 is the largest that fits\n")
    assert time.perf_counter() - start < 2.0
    code, text = run(tmp_path, "diagram-aq", data, "-p", "3", "--smax", "1", "--qmax", "2")
    assert code == 0 and sorted(json.loads(text)["tables"]) == ["0", "1", "2"]


def test_diagram_aq_refusal_from_level_1_says_no_qmax_fits(tmp_path, capsys, monkeypatch):
    # a budget of one cell admits every differential from level 0 of the
    # exterior algebra on degrees 1 and 3 and refuses the 2 x 1 one from
    # level 1 in map degree -4, which AQ^0 = HH^1 reads in every run
    from fphomalg import homalg

    monkeypatch.setattr(homalg, "MAX_CHAIN_CELLS", 1)
    data = {"category": {"objects": [{"id": "a", "lambda": 0}], "arrows": []},
            "v_values": {"a": {"dims": {"1": 1, "3": 1}}}, "m_values": {"a": {"dims": {"3": 1}}}}
    code, _ = run(tmp_path, "diagram-aq", data, "-p", "3", "--qmax", "0")
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid input: the Hochschild cochain differential from level 1 in map degree -4, "
        "which every diagram-aq run needs, is 2 x 1, over the budget of 1 cells; "
        "no --qmax fits\n")


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


@pytest.mark.parametrize("command", ["invariants", "lie-check"])
@pytest.mark.parametrize("degree", [0, -2])
def test_exit_code_2_on_nonpositive_action_degree(tmp_path, command, degree):
    # the degree-d monomials of a degree-0 or negative generator never run out
    data = {"p": 3, "matrices": [[[2]]], "degrees": [degree]}
    start = time.perf_counter()
    code, _ = run(tmp_path, command, data, "-n", "6")
    assert code == 2
    assert time.perf_counter() - start < 1.0


AQ_ON_X3 = {"algebra": {"kind": "exterior", "generators": GENS_X3}}
TRUNCATED_X2 = {"kind": "truncated", "generators": [{"name": "x", "degree": 2}]}


@pytest.mark.parametrize("command, data, field", [
    ("stanley-reisner", {"vertices": ["a"], "facets": [["a"]], "degree": "x"}, "degree"),
    ("diagram-lim", {"vertices": ["a"], "facets": [["a"]], "degree": "x"}, "degree"),
    ("free-lie", {"generators": [{"name": "x", "degree": "a"}]}, "degree of 'x'"),
    ("free-lie", [{"name": "x", "degree": 2.5}], "degree of 'x'"),
    ("aq", {**AQ_ON_X3, "module": {"dims": {"a": 1}}}, "dims key"),
    ("aq", {"algebra": {"kind": "exterior", "generators": [{"name": "x", "degree": "a"}]}},
     "degree of 'x'"),
    ("invariants", {"p": "x", "matrices": [[[1]]], "degrees": [2]}, "p"),
    ("invariants", {"p": 3, "matrices": [[[1]]], "degrees": ["x"]}, "degree"),
    ("emss", {"p": 2.5}, "p"),
    ("ext", {"algebra": {"kind": "exterior", "p": "x", "generators": GENS_X3}}, "p"),
    ("diagram-lim", {**COSPAN, "category": {**COSPAN["category"], "objects": [
        {"id": o, "lambda": "z"} for o in "zxy"]}}, "lambda of object 'z'"),
    ("diagram-lim", {**COSPAN, "maps": {f: {"degree": "x"} for f in "ab"}},
     "degree of map 'a'"),
    ("diagram-lim", {**COSPAN, "maps": {f: {"blocks": {"two": [[2]]}} for f in "ab"}},
     "block key of map 'a'"),
    ("diagram-lim", {**COSPAN, "maps": {f: {"blocks": {"2": [["z"]]}} for f in "ab"}},
     "entry of map 'a'"),
    ("diagram-lim", {**COSPAN, "maps": {f: {"blocks": {"2": [[1.5]]}} for f in "ab"}},
     "entry of map 'a'"),
    ("invariants", {"p": 3, "matrices": [[["a"]]], "degrees": [2]}, "matrix entry"),
    ("invariants", {"p": 3, "matrices": [[[1.5]]], "degrees": [2]}, "matrix entry"),
    ("obstruction", {"table": [{"s": "x", "t": 1, "dim": 1}]}, "s"),
    ("obstruction", {"table": [{"s": 1.5, "t": 1, "dim": 1}]}, "s"),
    ("ext", {"algebra": TRUNCATED_X2 | {"truncation": {"x": "a"}}}, "truncation of 'x'"),
    ("ext", {"algebra": TRUNCATED_X2 | {"truncation": {"x": 2.5}}}, "truncation of 'x'"),
    # JSON booleans are not integers, though int(True) is 1
    ("free-lie", [{"name": "x", "degree": True}], "degree of 'x'"),
    ("aq", {**AQ_ON_X3, "module": {"dims": {"3": True}}}, "dims['3']"),
    ("invariants", {"p": 3, "matrices": [[[True]]], "degrees": [2]}, "matrix entry"),
    ("ext", {"algebra": TRUNCATED_X2 | {"truncation": {"x": True}}}, "truncation of 'x'"),
    ("obstruction", {"table": [{"s": 1, "t": 1, "dim": True}]}, "dim"),
], ids=["stanley-reisner", "diagram-lim", "free-lie", "free-lie-fraction", "aq", "aq-generator",
        "invariants-p", "invariants-degree", "emss-p", "algebra-p", "lambda", "map-degree",
        "block-key", "block-entry", "block-entry-fraction", "matrix-entry",
        "matrix-entry-fraction", "table-row", "table-row-fraction", "truncation",
        "truncation-fraction", "free-lie-boolean", "dims-boolean", "matrix-entry-boolean",
        "truncation-boolean", "table-dim-boolean"])
def test_non_integer_degree_is_a_validation_error(tmp_path, capsys, command, data, field):
    code, _ = run(tmp_path, command, data, "-p", "3", "-n", "6")
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"invalid input: {field} must be an integer")


@pytest.mark.parametrize("command, data, message", [
    ("ext", {"algebra": TRUNCATED_X2 | {"truncation": [3]}}, "truncation must map"),
    ("ext", {"algebra": TRUNCATED_X2 | {"truncation": {"x": 3, "zz": 2}}},
     "exponent caps name no generator: ['zz']"),
    ("invariants", {"p": 3, "matrices": [[[1, 0], [0]]], "degrees": [2, 2]},
     "matrix rows of lengths [2, 1]"),
    ("emss", {"preset": "nope", "n": 3},
     "unknown emss preset 'nope' (the one known preset is 'diagonal-circle')"),
], ids=["truncation-not-an-object", "truncation-unknown-name", "ragged-matrix",
        "emss-unknown-preset"])
def test_malformed_algebra_and_action_are_validation_errors(tmp_path, capsys, command,
                                                            data, message):
    code, _ = run(tmp_path, command, data, "-p", "3", "-n", "6")
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith(f"invalid input: {message}")


POLY_V2 = {"kind": "polynomial", "generators": [{"name": "v0", "degree": 2}]}
POLY_T2 = {"generators": [{"name": "t", "degree": 2}]}


@pytest.mark.parametrize("command, data, message", [
    ("tor", {"base": POLY_V2, "left": {"target": POLY_V2, "images": {"v0": {"v0": 1}}}},
     "image of 'v0' must be an expression"),
    ("emss", {"base": {"generators": [{"name": "c1", "degree": 2}]}, "x": POLY_T2,
              "y": POLY_T2, "to_x": {"c1": {"t": 1}}, "to_y": {"c1": "t"}},
     "image of 'c1' must be an expression"),
    ("tor", {"base": POLY_V2, "left": {"algebra": POLY_V2, "images": {"v0": "v0"}}},
     "a tor side is \"k\", \"id\" or an object with \"target\" and \"images\""),
    ("tor", {"base": POLY_V2, "left": {"target": POLY_V2, "images": ["v0"]}},
     "generator images must be an object"),
], ids=["tor-dict-images", "emss-dict-images", "tor-side-without-target",
        "tor-images-not-an-object"])
def test_malformed_algebra_maps_are_validation_errors(tmp_path, capsys, command, data,
                                                      message):
    code, _ = run(tmp_path, command, data, "-p", "3", "-n", "6")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"invalid input: {message}")


SPAN_35 = {  # V = {3: 1, 5: 1} with identity maps; M as in the sweep's span
    "category": {"objects": [{"id": "z", "lambda": 0}, {"id": "x", "lambda": 1},
                             {"id": "y", "lambda": 1}],
                 "arrows": [{"id": "a", "src": "z", "dst": "x"},
                            {"id": "b", "src": "z", "dst": "y"}]},
    "v_values": {o: {"dims": {"3": 1, "5": 1}} for o in "zxy"},
    "v_maps": {f: {"blocks": {"3": [[1]], "5": [[1]]}} for f in "ab"},
    "m_values": {"z": {"dims": {"3": 1}}, "x": {"dims": {"3": 2}}, "y": {"dims": {"3": 1}}},
    "m_maps": {"a": {"blocks": {"3": [[1, 0]]}}, "b": {"blocks": {"3": [[1]]}}},
}


@pytest.mark.parametrize("p", ["2", "3"])
def test_diagram_aq_on_a_two_generator_span(tmp_path, p):
    code, text = run(tmp_path, "diagram-aq", SPAN_35, "-p", p, "--smax", "3", "--qmax", "5")
    assert code == 0
    report = json.loads(text)
    kernel = {
        "0": {"-2": 2, "0": 2},
        "1": {"-7": 2, "-5": 2, "-3": 2},
        "2": {"-12": 2, "-10": 2, "-8": 2, "-6": 2},
        "3": {"-17": 2, "-15": 2, "-13": 2, "-11": 2, "-9": 2},
        "4": {"-22": 2, "-20": 2, "-18": 2, "-16": 2, "-14": 2, "-12": 2},
        "5": {"-27": 2, "-25": 2, "-23": 2, "-21": 2, "-19": 2, "-17": 2, "-15": 2},
    }
    assert report["kernel_formula"] == kernel
    # every table sits in s = 0 and equals the kernel formula
    assert report["tables"] == {
        q: [{"dim": n, "s": 0, "t": int(t)} for t, n in row.items()]
        for q, row in kernel.items()}
    assert report["notes"] == []


def test_diagram_aq_refuses_negative_smax(tmp_path, capsys):
    data = {"category": COSPAN["category"],
            "v_values": {o: {"dims": {"3": 1}} for o in "zxy"},
            "m_values": {o: {"dims": {"3": 1}} for o in "zxy"}}
    data["v_maps"] = data["m_maps"] = {f: {"blocks": {"3": [[1]]}} for f in "ab"}
    code, _ = run(tmp_path, "diagram-aq", data, "-p", "3", "--smax", "-1")
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed input" not in err and "smax must be >= 0" in err


def test_command_line_errors_exit_2(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(GENS_X3))
    assert main([]) == 2
    assert main(["free-w1"]) == 2
    assert main(["no-such-command", str(path)]) == 2
    assert main(["free-w1", "--format", "xml", str(path)]) == 2
    assert main(["free-w1", "-p", "3", "-n", "4", str(path)]) == 0


SR_TWO_POINTS = {"vertices": ["a", "b"], "facets": [["a"], ["b"]]}


@pytest.mark.parametrize("command, data, option, value, low", [
    ("bar", {"kind": "exterior", "generators": GENS_X3}, "-n", "-1", 0),
    ("loops", {"dims": {"2": 1}}, "-n", "-1", 0),
    ("bar", {"kind": "exterior", "generators": GENS_X3}, "--smax", "-1", 0),
    ("stanley-reisner", SR_TWO_POINTS, "-n", "-1", 0),
    ("ext", AQ_ON_X3, "-n", "-1", 0),
    ("aq", AQ_ON_X3, "-n", "-5", 0),
    ("hochschild", AQ_ON_X3, "--smax", "-1", 0),
    ("diagram-aq", None, "--qmax", "-1", 0),
    ("axioms", GENS_X3, "--trials", "0", 1),
    ("axioms", GENS_X3, "--trials", "-1", 1),
    ("axioms", GENS_X3, "--seed", "-1", 0),
    ("free-w1", GENS_X3, "--weight-cap", "0", 1),
])
def test_out_of_range_options_exit_2_before_any_work(tmp_path, capsys, command, data,
                                                     option, value, low):
    if data is None:
        data = {"category": COSPAN["category"],
                "v_values": {o: {"dims": {"3": 1}} for o in "zxy"},
                "m_values": {o: {"dims": {"3": 1}} for o in "zxy"}}
        data["v_maps"] = data["m_maps"] = {f: {"blocks": {"3": [[1]]}} for f in "ab"}
    code, text = run(tmp_path, command, data, "-p", "3", option, value)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "Traceback" not in err
    assert f"{option} must be >= {low}, got {value}" in err


@pytest.mark.parametrize("order", [0, -2])
def test_lie_check_refuses_a_declared_order_below_1(tmp_path, capsys, order):
    action = {"p": 3, "matrices": [[[2, 0], [0, 2]]], "degrees": [2, 2], "order": order}
    code, text = run(tmp_path, "lie-check", action, "-n", "12")
    assert code == 2 and text == ""
    assert f"group order must be >= 1, got {order}" in capsys.readouterr().err
