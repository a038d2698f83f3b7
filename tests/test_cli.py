import json
import os
import subprocess
import sys

import pytest

from flagcr import classify, rootsys
from flagcr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_g2(capsys):
    code, out = run(capsys, "enumerate", "--type", "G2")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["count"] == 2
    assert data["exhaustive"] is True


def test_enumerate_a_rank2(capsys):
    code, out = run(capsys, "enumerate", "--type", "A", "--rank", "2")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 2


def test_enumerate_budget_exit2(capsys):
    code, out = run(capsys, "enumerate", "--type", "F4", "--budget", "10")
    assert code == 2
    data = json.loads(out)
    assert data["exhaustive"] is False


def test_enumerate_env_budget(capsys, monkeypatch):
    # no environment variable sets the budget: F4 runs under the default
    monkeypatch.setenv("FLAGCR_BUDGET", "10")
    code, out = run(capsys, "enumerate", "--type", "F4")
    assert code == 0
    assert json.loads(out)["inputs"]["budget"] == 2_000_000


def test_enumerate_bad_args(capsys):
    with pytest.raises(SystemExit) as e:
        main(["enumerate", "--type", "H8"])
    assert e.value.code == 1


def test_enumerate_deterministic(capsys):
    _, out1 = run(capsys, "enumerate", "--type", "B", "--rank", "3")
    _, out2 = run(capsys, "enumerate", "--type", "B", "--rank", "3")
    assert out1 == out2


def test_check_example6(tmp_path, capsys):
    e8 = rootsys.build_root_system("E8")
    ex6 = next(e for e in classify.e8_examples() if e["label"] == "6")
    q = classify.e8_example_set(ex6)
    f = tmp_path / "ex6.json"
    f.write_text(rootsys.rootset_to_json(e8, q))
    code, out = run(capsys, "check", "--roots", str(f))
    assert code == 0
    res = json.loads(out)["results"]
    assert res["symmetric"] is True
    assert res["weak_j"] is True
    assert res["j"] is False


def test_check_g2_q42(tmp_path, capsys):
    g2 = rootsys.build_root_system("G2")
    q = rootsys.roots_set(g2, [(1, 0, -1), (2, -1, -1), (1, 1, -2)])
    f = tmp_path / "q42.json"
    f.write_text(rootsys.rootset_to_json(g2, q))
    code, out = run(capsys, "check", "--roots", str(f))
    assert code == 0
    assert json.loads(out)["results"]["symmetric"] is False


def test_check_empty_set(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"type": "G2", "rank": 2, "roots": []}))
    code, out = run(capsys, "check", "--roots", str(f))
    assert code == 0
    res = json.loads(out)["results"]
    assert res["is_lb"] is True
    assert res["fundamental"] is False
    assert res["status"] == "not_fundamental"


def test_check_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{broken")
    assert main(["check", "--roots", str(f)]) == 1


MALFORMED_ROOT_SETS = [
    ("top-level list", "[1, 2]", "expected a JSON object"),
    ("top-level string", '"A"', "expected a JSON object"),
    ("missing type", '{"rank": 2, "roots": []}', "missing key 'type'"),
    ("missing roots", '{"type": "A", "rank": 2}', "missing key 'roots'"),
    ("unknown type", '{"type": "H8", "roots": []}', "unknown type 'H8'"),
    ("unhashable type", '{"type": ["A"], "roots": []}', "unknown type ['A']"),
    ("rank not an integer", '{"type": "A", "rank": "2", "roots": []}', "needs an integer rank"),
    ("roots not a list", '{"type": "A", "rank": 2, "roots": 5}', "roots must be a list"),
    ("non-root vector", '{"type": "A", "rank": 2, "roots": [[9, 9, 9]]}', "roots[0] = [9, 9, 9] is not a root of A2"),
    ("non-integer entries", '{"type": "G2", "roots": [["2", "-2", "0"]]}', "is not a root of G2"),
    ("duplicate root", '{"type": "A", "rank": 2, "roots": [[2, -2, 0], [2, -2, 0]]}',
     "roots[1] = [2, -2, 0] repeats an earlier root"),
    ("rank contradicts a fixed-rank type", '{"type": "E6", "rank": 7, "roots": []}', "E6 has fixed rank 6"),
    ("fixed rank not an integer", '{"type": "E6", "rank": 6.0, "roots": []}', "type E6 needs an integer rank, got 6.0"),
    # the rank of a root-set file is the Lie rank, and so is the error
    ("type A rank 0", '{"type": "A", "rank": 0, "roots": []}', "A_n needs rank n >= 1, got 0"),
    ("type A negative rank", '{"type": "A", "rank": -3, "roots": []}', "A_n needs rank n >= 1, got -3"),
]


@pytest.mark.parametrize("cmd", [["check"], ["realform", "--conjugation", "compact"]], ids=["check", "realform"])
@pytest.mark.parametrize("text,message", [c[1:] for c in MALFORMED_ROOT_SETS],
                         ids=[c[0] for c in MALFORMED_ROOT_SETS])
def test_malformed_root_set_exits_1(tmp_path, capsys, cmd, text, message):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert main([cmd[0], "--roots", str(f), *cmd[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cralg_heisenberg_levi(capsys):
    code, out = run(capsys, "cralg", "--preset", "heisenberg", "--op", "levi")
    assert code == 0
    assert json.loads(out)["results"]["levi_matrix"] == [["-2"]]


def test_cralg_exam_bf_fibration(capsys):
    code, out = run(capsys, "cralg", "--preset", "exam-bf", "--op", "fibration", "--ideal", "radical")
    assert code == 0
    assert json.loads(out)["results"]["compatible"] is False


@pytest.mark.parametrize("ideal,base,fiber", [("center", [1, 0], [0, 1]), ("zero", [1, 1], [0, 0]),
                                              ("full", [0, 0], [1, 1])])
def test_cralg_heisenberg_fibration(capsys, ideal, base, fiber):
    # a compatible ideal prints the CR (dim, codim) of the base and the fiber
    code, out = run(capsys, "cralg", "--preset", "heisenberg", "--op", "fibration", "--ideal", ideal)
    assert code == 0
    res = json.loads(out)["results"]
    assert res == {"ideal": ideal, "compatible": True, "base_cr": base, "fiber_cr": fiber}


def test_enumerate_budget_stop_table(capsys):
    # a stop before the first class prints the empty table and exits 2
    code, out = run(capsys, "enumerate", "--type", "G2", "--budget", "1", "--format", "table")
    assert code == 2
    assert out == "(empty)\n"


@pytest.mark.parametrize("preset,ideal,owner", [("su2-flag", "center", "heisenberg"),
                                                ("heisenberg", "radical", "exam-bf")])
def test_cralg_named_ideal_names_its_preset(capsys, preset, ideal, owner):
    assert main(["cralg", "--preset", preset, "--op", "fibration", "--ideal", ideal]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --ideal {ideal} is defined only for the {owner} preset\n"


def test_cralg_flag_g2_predicates(capsys):
    code, out = run(capsys, "cralg", "--preset", "flag:G2:Q40", "--op", "predicates")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["fundamental"] is True
    assert res["effective"] is True


BAD_PRESETS = [
    ("rank on G2", "flag:G2:5", "G2 takes no rank"),
    ("its own rank on G2", "flag:G2:2:Q40", "G2 takes no rank"),
    ("two ranks", "flag:A:3:4", "preset 'flag:A:3:4' gives more than one rank"),
    ("two Q specs", "flag:B:2:borel:cartan", "preset 'flag:B:2:borel:cartan' gives more than one Q spec"),
    ("F4", "flag:F4", "no flag preset of type 'F4'; supported types: A, B, C, D, G2"),
    ("E6 with Q spec", "flag:E6:borel", "supported types: A, B, C, D, G2"),
    ("missing rank", "flag:A", "type A requires a rank"),
    ("rank too small", "flag:D:2", "D_n needs n >= 3"),
    ("G2 Q spec on B", "flag:B:2:Q40", "unknown Q spec 'Q40' for B; known: borel, cartan"),
    ("unknown Q spec on G2", "flag:G2:Q43", "unknown Q spec 'Q43' for G2; known: borel, cartan, Q40, Q41, Q42"),
    ("unknown name", "sl3", "unknown preset 'sl3'"),
]


@pytest.mark.parametrize("preset,message", [c[1:] for c in BAD_PRESETS], ids=[c[0] for c in BAD_PRESETS])
def test_bad_preset_exits_1(capsys, preset, message):
    # a malformed preset name ends in exit 1 with a precise message, and
    # keeps no flag preset on a root system of a type that has none
    from flagcr import presets

    assert main(["cralg", "--preset", preset, "--op", "predicates"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load algebra: ")
    assert message in captured.err
    for (tag, _), rs in rootsys._SYSTEMS.items():
        assert tag in presets.FLAG_TYPES or "flag" not in rs._tables


def test_cralg_file_mode(tmp_path, capsys):
    from flagcr.presets import heisenberg

    h = heisenberg()
    fa = tmp_path / "alg.json"
    fa.write_text(h.pres.to_json())
    fq = tmp_path / "q.json"
    fq.write_text(json.dumps([[[1, 0], [0, 1], [0, 0]]]))  # X + iY
    code, out = run(capsys, "cralg", "--file", str(fa), "--q", str(fq), "--op", "predicates")
    assert code == 0
    data = json.loads(out)
    assert data["results"]["cr_dim"] == 1 and data["results"]["cr_codim"] == 1
    assert data["inputs"] == {"preset": None, "op": "predicates", "file": str(fa), "q": str(fq)}


def test_cralg_inputs_name_every_given_option(capsys):
    # --ideal and --xi enter inputs, and so inputs_digest, only when given
    runs = [("--op", "fibration", "--ideal", ideal) for ideal in ("center", "zero", "full")]
    runs += [("--op", "levi"), ("--op", "levi", "--xi", "[0, 0, 1]")]
    reports = []
    for argv in runs:
        assert main(["cralg", "--preset", "heisenberg", *argv]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [r["inputs"] for r in reports] == [
        {"preset": "heisenberg", "op": "fibration", "ideal": "center"},
        {"preset": "heisenberg", "op": "fibration", "ideal": "zero"},
        {"preset": "heisenberg", "op": "fibration", "ideal": "full"},
        {"preset": "heisenberg", "op": "levi"},
        {"preset": "heisenberg", "op": "levi", "xi": "[0, 0, 1]"}]
    assert len({r["inputs_digest"] for r in reports}) == len(runs)


CRALG_IGNORED_OPTIONS = [
    ("preset with file and q", ["--preset", "heisenberg", "--file", "x", "--q", "y", "--op", "predicates"],
     "--preset takes no --file or --q"),
    ("preset with q", ["--preset", "heisenberg", "--q", "y", "--op", "levi"], "--preset takes no --file or --q"),
    ("xi outside levi", ["--preset", "heisenberg", "--op", "predicates", "--xi", "[1,0,0]"],
     "--xi applies only to --op levi"),
    ("ideal outside fibration", ["--preset", "heisenberg", "--op", "levi", "--ideal", "center"],
     "--ideal applies only to --op fibration"),
    ("xi in file mode", ["--file", "x", "--q", "y", "--op", "anticanonical", "--xi", "[0,0,1]"],
     "--xi applies only to --op levi"),
]


@pytest.mark.parametrize("argv,message", [c[1:] for c in CRALG_IGNORED_OPTIONS],
                         ids=[c[0] for c in CRALG_IGNORED_OPTIONS])
def test_cralg_rejects_options_it_ignores(capsys, argv, message):
    # an option the chosen mode or --op would not read is an error, not
    # silently kept in inputs (and inputs_digest); no file is opened
    assert main(["cralg", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _heisenberg_json(edit=None):
    from flagcr.presets import heisenberg

    data = json.loads(heisenberg().pres.to_json())
    if edit:
        edit(data)
    return json.dumps(data)


def _set(path, value):
    def edit(data):
        *keys, last = path
        for k in keys:
            data = data[k]
        data[last] = value
    return edit


def _sl2_json():
    from flagcr.presets import sl2

    return sl2().to_json()


X_PLUS_IY = "[[[1, 0], [0, 1], [0, 0]]]"

# (id, --file text or None for --preset heisenberg, --q text, extra argv, message)
MALFORMED_CRALG = [
    ("index k >= dim", _heisenberg_json(_set(["c", 0, 2], 7)), X_PLUS_IY, [],
     "structure constant (0, 1) -> 7: index outside 0..2"),
    ("negative index", _heisenberg_json(_set(["c", 0, 0], -1)), X_PLUS_IY, [],
     "structure constant (-1, 1) -> 2: index outside 0..2"),
    ("i = j", _heisenberg_json(_set(["c", 0, 1], 0)), X_PLUS_IY, [], "structure constant (0, 0) -> 2: i = j"),
    ("conj not dim x dim", _heisenberg_json(_set(["conj"], [[["1", "0"]]])), X_PLUS_IY, [],
     "conj must be a 3 x 3 matrix"),
    ("short entry", _heisenberg_json(_set(["c", 0], [0, 1, 2])), X_PLUS_IY, [],
     "structure constant [0, 1, 2] is not [i, j, k, re, im]"),
    ("non-rational constant", _heisenberg_json(_set(["c", 0, 3], "x")), X_PLUS_IY, [],
     "is not a pair [re, im] of rationals"),
    ("not an object", "[3]", X_PLUS_IY, [], "expected a JSON object with keys dim, c and conj"),
    ("dim not an integer", _heisenberg_json(_set(["dim"], "3")), X_PLUS_IY, [],
     "dim must be a non-negative integer, got '3'"),
    ("c not a list", _heisenberg_json(_set(["c"], 5)), X_PLUS_IY, [],
     "c must be a list of entries and conj a list of rows"),
    ("labels of the wrong length", _heisenberg_json(_set(["labels"], ["X", "Y"])), X_PLUS_IY, [],
     "labels must be a list of 3 names"),
    ("q not a subalgebra", _sl2_json(), "[[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]", [],
     "q is not closed under the bracket"),
    ("Jacobi fails", _heisenberg_json(lambda d: d["c"].append([0, 2, 0, "1", "0"])), X_PLUS_IY, [],
     "Jacobi identity fails on basis triple 0,1,2"),
    ("q vector too short", _heisenberg_json(), "[[[1, 0], [0, 1]]]", [], "vector 0 has 2 coordinates, not 3"),
    ("q vector too long", _heisenberg_json(), "[[[1, 0], [0, 1], [0, 0], [0, 0]]]", [],
     "vector 0 has 4 coordinates, not 3"),
    ("q not a list of vectors", _heisenberg_json(), "5", [], "--q must hold a JSON list of vectors"),
    ("q coordinate not a pair", _heisenberg_json(), "[[[1, 0], [0, 1], 5]]", [],
     "--q vector 0: 5 is not a pair [re, im] of rationals"),
    ("xi not JSON", None, None, ["--xi", "abc"], "--xi must be a JSON list of 3 integers, got 'abc'"),
    ("xi too short", None, None, ["--xi", "[1]"], "--xi must be a JSON list of 3 integers, got '[1]'"),
    ("xi fractional", None, None, ["--xi", "[0,0,0.5]"], "--xi must be a JSON list of 3 integers"),
    ("xi boolean", None, None, ["--xi", "[0,0,true]"], "--xi must be a JSON list of 3 integers"),
    ("xi not characteristic", None, None, ["--xi", "[1,0,0]"],
     "--xi [1,0,0] is not characteristic: xi does not annihilate (q+qbar) n g0"),
]


@pytest.mark.parametrize("alg,q,extra,message", [c[1:] for c in MALFORMED_CRALG], ids=[c[0] for c in MALFORMED_CRALG])
def test_malformed_cralg_input_exits_1(tmp_path, capsys, alg, q, extra, message):
    if alg is None:
        source = ["--preset", "heisenberg"]
    else:
        (tmp_path / "alg.json").write_text(alg)
        (tmp_path / "q.json").write_text(q)
        source = ["--file", str(tmp_path / "alg.json"), "--q", str(tmp_path / "q.json")]
    assert main(["cralg", *source, "--op", "levi", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_realform_command(tmp_path, capsys):
    a3 = rootsys.build_root_system("A", 4)
    from flagcr.weyl import positive_roots

    q = frozenset(positive_roots(a3))
    f = tmp_path / "pos.json"
    f.write_text(rootsys.rootset_to_json(a3, q))
    code, out = run(capsys, "realform", "--roots", str(f), "--conjugation", "compact", "--op", "adapted")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["partition"] is True
    assert res["adapted"]["ok"] is True
    assert res["adapted"]["p"] == 0
    # a-reverse with the Q from the regular-structure example
    q2 = rootsys.roots_set(
        a3,
        [(1, -1, 0, 0), (-1, 1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1)],
    )
    f2 = tmp_path / "arev.json"
    f2.write_text(rootsys.rootset_to_json(a3, q2))
    code, out = run(capsys, "realform", "--roots", str(f2), "--conjugation", "a-reverse:m=2", "--op", "adapted")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["lemma"]["ok"] is True
    assert res["adapted"]["p"] == 1


def test_verify_paper_gradings(capsys):
    code, out = run(capsys, "verify-paper", "--section", "gradings")
    assert code == 0
    lines = out.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("{"))
    report = json.loads("\n".join(lines[start:]))
    assert report["results"]["summary"]["fail"] == 0
    assert report["results"]["summary"]["pass"] >= 10


def _last_json(out):
    """The lines before the first line opening a JSON object, and that object."""
    lines = out.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("{"))
    return lines[:start], json.loads("\n".join(lines[start:]))


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("argv", [["enumerate", "--type", "G2"], ["verify-paper", "--section", "gradings"]],
                         ids=["enumerate", "verify-paper"])
def test_verbose_adds_timing_in_both_formats(capsys, argv, fmt):
    # --verbose adds a non-negative timing_s and nothing else: a key of the
    # JSON report; under --format table a key of verify-paper's summary line,
    # else a last line of its own
    code, plain = run(capsys, *argv, "--format", fmt)
    vcode, verbose = run(capsys, *argv, "--format", fmt, "--verbose")
    assert code == vcode == 0
    assert "timing_s" not in plain
    if fmt == "table" and argv[0] == "enumerate":
        *head, last = verbose.splitlines()
        assert head == plain.splitlines()
        tail = json.loads(last)
        timing = tail.pop("timing_s")
        assert not tail
    else:
        head, report = _last_json(verbose)
        timing = report.pop("timing_s")
        assert (head, report) == _last_json(plain)
    assert isinstance(timing, float) and timing >= 0


@pytest.mark.parametrize("section,builds", [("6", 8), ("7", 5)])
def test_verify_paper_builds_each_system_once(capsys, monkeypatch, fresh_systems, section, builds):
    # the enumerations, catalogs, counterexamples and criterion checks of a
    # section share one root system per type: each is constructed once
    calls = []
    build = rootsys._build

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(rootsys, "_build", counting)
    code, _ = run(capsys, "verify-paper", "--section", section)
    assert code == 0
    assert len(calls) == len(set(calls)) == builds, calls


def test_catalog_canonical_form_stop_exits_2(capsys, monkeypatch):
    # a canonical-form budget stop inside the B/D catalogs is the one
    # BudgetExceeded the CLI reports: exit 2, one error line, no traceback
    from flagcr import weyl

    monkeypatch.setattr(classify, "canonical_form", lambda r, q: weyl.canonical_form(r, q, budget=1))
    code = main(["verify-paper", "--section", "6"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: canonical image search exceeded 1 candidates")
    assert "Traceback" not in err


def test_budget_stop_in_a_later_section_keeps_the_finished_ones(capsys, monkeypatch):
    # a stop in the gradings section of 'all' keeps the rows of sections 6
    # and 7, which finished; the CLI prints exactly those, flagged, and exits 2
    finished = classify.verify_paper("6") + classify.verify_paper("7")

    def stop(l, i):
        raise classify.BudgetExceeded(f"orbit search of S^{l}_{i} stopped", None)

    monkeypatch.setattr(classify, "s_part_orbits", stop)
    with pytest.raises(classify.BudgetExceeded) as caught:
        classify.verify_paper("all")
    assert caught.value.partial == finished
    code = main(["verify-paper", "--section", "all"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: orbit search of S^6_1 stopped\n"
    lines, report = _last_json(captured.out)
    assert report["exhaustive"] is False
    assert report["results"]["rows"] == finished
    assert len(lines) == len(finished)
    assert all(ln.startswith(("[PASS] ", "[KNOWN] ")) for ln in lines)


@pytest.mark.parametrize("section", [*classify.SECTIONS, "all"])
def test_verify_paper_report_rows_are_the_library_rows(capsys, section):
    code, out = run(capsys, "verify-paper", "--section", section)
    assert code == 0
    lines, report = _last_json(out)
    rows = classify.verify_paper(section)
    assert report["results"]["rows"] == rows
    assert report["exhaustive"] is True
    assert len(lines) == len(rows)


BUDGET_CASES = [
    # (id, argv, FLAGCR_BUDGET, which no command reads, exit code, stderr
    # fragment); an id argv<k>-... is the one pytest gave row k before the
    # table had ids, kept so that no test is renamed
    ("argv0-None-1---budget must be a positive integer", ["enumerate", "--type", "G2", "--budget", "0"], None, 1, "--budget must be a positive integer"),
    ("argv1-None-1---budget must be a positive integer", ["enumerate", "--type", "G2", "--budget", "-5"], None, 1, "--budget must be a positive integer"),
    ("argv2-None-1-argument --budget", ["enumerate", "--type", "G2", "--budget", "abc"], None, 1, "argument --budget"),
    # FLAGCR_BUDGET is ignored, verify-paper takes no --budget, and the
    # su2-flag preset has no second name
    ("argv3-abc-0-", ["enumerate", "--type", "G2"], "abc", 0, ""),
    ("argv4-0-0-", ["enumerate", "--type", "G2"], "0", 0, ""),
    ("argv5-None-1-unknown preset 'su2'", ["cralg", "--preset", "su2", "--op", "predicates"], None, 1, "unknown preset 'su2'"),
    ("argv6-abc-0-", ["enumerate", "--type", "G2", "--budget", "100000"], "abc", 0, ""),
    ("argv7-None-2-", ["enumerate", "--type", "F4", "--budget", "10"], None, 2, ""),
    ("argv8-None-1-unrecognized arguments: --budget 0", ["verify-paper", "--section", "7", "--budget", "0"], None, 1, "unrecognized arguments: --budget 0"),
    ("argv9-None-1-unrecognized arguments: --budget -5", ["verify-paper", "--section", "7", "--budget", "-5"], None, 1, "unrecognized arguments: --budget -5"),
    ("argv10-abc-0-", ["verify-paper", "--section", "7"], "abc", 0, ""),
    ("argv11-None-1-unrecognized arguments: --budget 5", ["verify-paper", "--section", "7", "--budget", "5"], None, 1, "unrecognized arguments: --budget 5"),
    ("argv12-abc-0-", ["check", "--roots", "{roots}"], "abc", 0, ""),
    ("argv13-None-1-unrecognized arguments", ["check", "--roots", "{roots}", "--budget", "5"], None, 1, "unrecognized arguments"),
    ("argv14-None-1-unrecognized arguments", ["check", "--roots", "{roots}", "--properties", "all"], None, 1, "unrecognized arguments"),
    ("argv15-None-1-'a-reverse:m=x'", ["realform", "--roots", "{a_roots}", "--conjugation", "a-reverse:m=x"], None, 1, "'a-reverse:m=x'"),
    ("argv16-None-1-'a-reverse:m='", ["realform", "--roots", "{a_roots}", "--conjugation", "a-reverse:m="], None, 1, "'a-reverse:m='"),
    ("argv17-None-1-'a-reverse:k'", ["realform", "--roots", "{a_roots}", "--conjugation", "a-reverse:k"], None, 1, "'a-reverse:k'"),
    ("argv18-None-1-G2 has fixed rank 2", ["enumerate", "--type", "G2", "--rank", "9"], None, 1, "G2 has fixed rank 2"),
    ("argv19-None-0-", ["enumerate", "--type", "G2", "--rank", "2"], None, 0, ""),
    # --rank is the Lie rank, and so is the error
    ("argv20-None-1-A_n needs rank n >= 1, got 0", ["enumerate", "--type", "A", "--rank", "0"], None, 1, "A_n needs rank n >= 1, got 0"),
    ("argv21-None-1-A_n needs rank n >= 1, got -1", ["enumerate", "--type", "A", "--rank", "-1"], None, 1, "A_n needs rank n >= 1, got -1"),
    ("enumerate A without rank", ["enumerate", "--type", "A"], None, 1, "type A requires a rank"),
]


@pytest.mark.parametrize("argv,env,want,fragment", [c[1:] for c in BUDGET_CASES], ids=[c[0] for c in BUDGET_CASES])
def test_budget_inputs(argv, env, want, fragment, tmp_path, capsys, monkeypatch):
    # every budget or option input ends in an exit code, never in an exception
    g2 = rootsys.build_root_system("G2")
    f = tmp_path / "q.json"
    f.write_text(rootsys.rootset_to_json(g2, classify.enumerate_maximal(g2)[0].canonical))
    a3 = rootsys.build_root_system("A", 4)
    fa = tmp_path / "a.json"
    fa.write_text(rootsys.rootset_to_json(a3, classify.enumerate_maximal(a3)[0].canonical))
    if env is not None:
        monkeypatch.setenv("FLAGCR_BUDGET", env)
    try:
        code = main([a.format(roots=f, a_roots=fa) for a in argv])
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert code == want
    assert fragment in captured.err
    assert "Traceback" not in captured.err
    if want == 2:
        assert json.loads(captured.out[captured.out.index("{") :])["exhaustive"] is False


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--type", "G2"], ["check", "--roots", "tests/golden/check-E7-maximal.json"]],
    ids=["enumerate", "check"],
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # stdout is a pipe whose reader is already gone, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flagcr", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            cwd=os.path.dirname(SRC),
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


NO_TRACEBACK_FILES = {
    "g2.json": rootsys.rootset_to_json(rootsys.build_root_system("G2"), []),
    "a3.json": rootsys.rootset_to_json(rootsys.build_root_system("A", 4), []),
    "garbled.json": "{broken",
    "empty.json": "",
    "binary.json": b"\xff\xfe{",
    "nonroot.json": '{"type": "A", "rank": 2, "roots": [[9, 9, 9]]}',
    "huge.json": '{"type": "A", "rank": 99999999999999, "roots": []}',
    "q.json": X_PLUS_IY,
    "heisenberg.json": _heisenberg_json(),
    "div0.json": _heisenberg_json(_set(["c", 0, 3], "1/0")),
    "nan.json": _heisenberg_json(_set(["c", 0, 3], "NaN")),
    "ieqj.json": _heisenberg_json(_set(["c", 0, 1], 0)),
    "conj2.json": _heisenberg_json(_set(["conj", 0, 0], ["2", "0"])),
}

# (id, argv with {d} the directory of NO_TRACEBACK_FILES, exit code)
NO_TRACEBACK = [
    ("enumerate no rank", ["enumerate", "--type", "A"], 1),
    ("enumerate rank 0", ["enumerate", "--type", "A", "--rank", "0"], 1),
    ("enumerate rank too small", ["enumerate", "--type", "D", "--rank", "2"], 1),
    ("enumerate negative rank", ["enumerate", "--type", "B", "--rank", "-1"], 1),
    ("enumerate rank not an integer", ["enumerate", "--type", "A", "--rank", "x"], 1),
    ("enumerate fixed rank", ["enumerate", "--type", "E6", "--rank", "7"], 1),
    ("enumerate huge rank", ["enumerate", "--type", "A", "--rank", "99999999999999"], 1),
    ("enumerate unknown type", ["enumerate", "--type", "H8"], 1),
    ("enumerate no type", ["enumerate"], 1),
    ("enumerate unknown quotient", ["enumerate", "--type", "G2", "--quotient", "w"], 1),
    ("enumerate budget 0", ["enumerate", "--type", "G2", "--budget", "0"], 1),
    ("enumerate budget negative", ["enumerate", "--type", "G2", "--budget", "-1"], 1),
    ("enumerate budget fractional", ["enumerate", "--type", "G2", "--budget", "1.5"], 1),
    ("enumerate budget stop", ["enumerate", "--type", "F4", "--budget", "10"], 2),
    ("check no roots", ["check"], 1),
    ("check missing file", ["check", "--roots", "{d}/missing.json"], 1),
    ("check directory", ["check", "--roots", "{d}"], 1),
    ("check garbled file", ["check", "--roots", "{d}/garbled.json"], 1),
    ("check empty file", ["check", "--roots", "{d}/empty.json"], 1),
    ("check non-UTF-8 file", ["check", "--roots", "{d}/binary.json"], 1),
    ("check non-root", ["check", "--roots", "{d}/nonroot.json"], 1),
    ("check huge rank", ["check", "--roots", "{d}/huge.json"], 1),
    ("check budget option", ["check", "--roots", "{d}/g2.json", "--budget", "5"], 1),
    ("realform missing file", ["realform", "--roots", "{d}/missing.json", "--conjugation", "compact"], 1),
    ("realform garbled file", ["realform", "--roots", "{d}/garbled.json", "--conjugation", "compact"], 1),
    ("realform non-root", ["realform", "--roots", "{d}/nonroot.json", "--conjugation", "compact"], 1),
    ("realform no conjugation", ["realform", "--roots", "{d}/g2.json"], 1),
    ("realform unknown conjugation", ["realform", "--roots", "{d}/g2.json", "--conjugation", "split"], 1),
    ("realform a-reverse on G2", ["realform", "--roots", "{d}/g2.json", "--conjugation", "a-reverse"], 1),
    ("realform a-reverse m mismatch", ["realform", "--roots", "{d}/a3.json", "--conjugation", "a-reverse:m=3"], 1),
    ("realform a-reverse m=0", ["realform", "--roots", "{d}/a3.json", "--conjugation", "a-reverse:m=0"], 1),
    ("realform a-reverse empty m", ["realform", "--roots", "{d}/a3.json", "--conjugation", "a-reverse:m="], 1),
    ("realform unknown op", ["realform", "--roots", "{d}/a3.json", "--conjugation", "compact", "--op", "x"], 1),
    ("verify-paper unknown section", ["verify-paper", "--section", "9"], 1),
    ("verify-paper budget 0", ["verify-paper", "--section", "7", "--budget", "0"], 1),
    ("cralg no op", ["cralg", "--preset", "heisenberg"], 1),
    ("cralg unknown op", ["cralg", "--preset", "heisenberg", "--op", "x"], 1),
    ("cralg unknown preset", ["cralg", "--preset", "sl3", "--op", "predicates"], 1),
    ("cralg unknown Q spec", ["cralg", "--preset", "flag:B:2:Q40", "--op", "predicates"], 1),
    ("cralg unknown G2 Q spec", ["cralg", "--preset", "flag:G2:Q43", "--op", "predicates"], 1),
    ("cralg huge rank", ["cralg", "--preset", "flag:A:99999999999999", "--op", "predicates"], 1),
    ("cralg unknown ideal", ["cralg", "--preset", "heisenberg", "--op", "fibration", "--ideal", "x"], 1),
    ("cralg no ideal", ["cralg", "--preset", "heisenberg", "--op", "fibration"], 1),
    ("cralg center elsewhere", ["cralg", "--preset", "su2-flag", "--op", "fibration", "--ideal", "center"], 1),
    ("cralg xi not JSON", ["cralg", "--preset", "heisenberg", "--op", "levi", "--xi", "abc"], 1),
    ("cralg xi too long", ["cralg", "--preset", "heisenberg", "--op", "levi", "--xi", "[0,0,0,1]"], 1),
    ("cralg file without q", ["cralg", "--file", "{d}/heisenberg.json", "--op", "predicates"], 1),
    ("cralg q without file", ["cralg", "--q", "{d}/q.json", "--op", "predicates"], 1),
    ("cralg missing file", ["cralg", "--file", "{d}/missing.json", "--q", "{d}/q.json", "--op", "levi"], 1),
    ("cralg constant 1/0", ["cralg", "--file", "{d}/div0.json", "--q", "{d}/q.json", "--op", "levi"], 1),
    ("cralg constant NaN", ["cralg", "--file", "{d}/nan.json", "--q", "{d}/q.json", "--op", "levi"], 1),
    ("cralg i = j", ["cralg", "--file", "{d}/ieqj.json", "--q", "{d}/q.json", "--op", "levi"], 1),
    ("cralg conj not involutive", ["cralg", "--file", "{d}/conj2.json", "--q", "{d}/q.json", "--op", "levi"], 1),
    ("cralg q garbled", ["cralg", "--file", "{d}/heisenberg.json", "--q", "{d}/garbled.json", "--op", "levi"], 1),
    ("cralg preset with file and q",
     ["cralg", "--preset", "heisenberg", "--file", "{d}/missing.json", "--q", "{d}/q.json", "--op", "predicates"], 1),
    ("cralg preset with q", ["cralg", "--preset", "heisenberg", "--q", "{d}/q.json", "--op", "predicates"], 1),
    ("cralg xi outside levi", ["cralg", "--preset", "heisenberg", "--op", "predicates", "--xi", "[1,0,0]"], 1),
    ("cralg ideal outside fibration", ["cralg", "--preset", "heisenberg", "--op", "levi", "--ideal", "center"], 1),
    ("no command", [], 1),
    ("unknown command", ["classify"], 1),
]


@pytest.mark.parametrize("argv,want", [c[1:] for c in NO_TRACEBACK], ids=[c[0] for c in NO_TRACEBACK])
def test_bad_input_exits_without_traceback(tmp_path, capsys, argv, want):
    # every subcommand turns bad input into an exit code and one error line,
    # never into an exception
    for name, text in NO_TRACEBACK_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        code = main([a.format(d=tmp_path) for a in argv])
    except SystemExit as e:
        code = e.code
    err = capsys.readouterr().err
    assert code == want
    assert err.startswith("error: ")
    assert "Traceback" not in err
