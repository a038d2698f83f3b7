"""Default CLI output, byte-compared with outputs recorded under golden/.

The commands run in-process through cli.main, so module caches (the parser,
the root systems and the G2 flag preset among them) are shared with the rest
of the suite; the last two tests run every command in one test, in other
orders, from an empty store of root systems.  They run from the repository
root, because the check and realform commands read root-set files under
golden/ by a path relative to it and echo that path.  After a change
that is meant to move the output, re-record a file from the repository root
with ``PYTHONPATH=src python -m flagcr <argv> > tests/golden/<name>.out``.
"""

import json
import os
from collections import Counter

import pytest

from flagcr import cli
from flagcr.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file name, argv, exit code)
COMMANDS = [
    ("enumerate-A4-aut", ["enumerate", "--type", "A", "--rank", "4", "--quotient", "aut"], 0),
    ("enumerate-E6-aut", ["enumerate", "--type", "E6", "--quotient", "aut"], 0),
    ("enumerate-D-4-aut", ["enumerate", "--type", "D", "--rank", "4", "--quotient", "aut"], 0),
    ("enumerate-F4", ["enumerate", "--type", "F4"], 0),
    ("enumerate-D-5", ["enumerate", "--type", "D", "--rank", "5"], 0),
    ("enumerate-B-4", ["enumerate", "--type", "B", "--rank", "4"], 0),
    ("enumerate-C-5", ["enumerate", "--type", "C", "--rank", "5"], 0),
    ("enumerate-A-5", ["enumerate", "--type", "A", "--rank", "5"], 0),
    ("enumerate-G2", ["enumerate", "--type", "G2"], 0),
    ("verify-paper-gradings", ["verify-paper", "--section", "gradings"], 0),
    ("verify-paper-7", ["verify-paper", "--section", "7"], 0),
    ("verify-paper-6", ["verify-paper", "--section", "6"], 0),
    ("verify-paper-e8-examples", ["verify-paper", "--section", "e8-examples"], 0),
    ("check-E7-maximal", ["check", "--roots", "tests/golden/check-E7-maximal.json"], 0),
    (
        "realform-F4-positive-adapted",
        ["realform", "--roots", "tests/golden/realform-F4-positive.json", "--conjugation", "compact", "--op", "adapted"],
        0,
    ),
    (
        "realform-A3-reverse-adapted",
        ["realform", "--roots", "tests/golden/realform-A3-reverse.json", "--conjugation", "a-reverse:m=2", "--op", "adapted"],
        0,
    ),
    ("cralg-G2-Q40-predicates", ["cralg", "--preset", "flag:G2:Q40", "--op", "predicates"], 0),
    ("cralg-G2-Q41-levi", ["cralg", "--preset", "flag:G2:Q41", "--op", "levi"], 0),
    ("cralg-G2-Q42-levi", ["cralg", "--preset", "flag:G2:Q42", "--op", "levi"], 0),
    ("cralg-B-3-cartan-levi", ["cralg", "--preset", "flag:B:3:cartan", "--op", "levi"], 0),
    ("cralg-C-3-anticanonical", ["cralg", "--preset", "flag:C:3", "--op", "anticanonical"], 0),
    ("cralg-A-3-levi", ["cralg", "--preset", "flag:A:3", "--op", "levi"], 0),
    ("cralg-D-4-cartan-levi", ["cralg", "--preset", "flag:D:4:cartan", "--op", "levi"], 0),
    ("cralg-B-2-predicates", ["cralg", "--preset", "flag:B:2", "--op", "predicates"], 0),
]


@pytest.mark.parametrize("name,argv,code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_golden_output(capsys, monkeypatch, name, argv, code):
    monkeypatch.chdir(ROOT)
    got_code = main(argv)
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as f:
        want = f.read()
    assert got_code == code
    assert out.encode() == want


def _golden_bytes(name):
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as f:
        return f.read()


def _run_all(capsys, commands):
    for name, argv, code in commands:
        got_code = main(argv)
        assert (name, got_code, capsys.readouterr().out.encode()) == (name, code, _golden_bytes(name))


def test_golden_after_a_usage_error(capsys, monkeypatch, fresh_systems):
    # a first main that fails in argument parsing leaves the shared parser
    # and systems fit for every later command of the process
    monkeypatch.chdir(ROOT)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as stop:
        main(["enumerate"])
    assert stop.value.code == 1
    assert "--type" in capsys.readouterr().err
    _run_all(capsys, COMMANDS)
    assert cli._parser.cache_info().misses == 1


def test_golden_in_reverse_order(capsys, monkeypatch, fresh_systems):
    # each root system is built by another command than in the forward order
    monkeypatch.chdir(ROOT)
    _run_all(capsys, COMMANDS[::-1])


def test_golden_e7_enumeration(capsys):
    # E7 is listed from counted forms, with no orbit walk: 2,343,574 search
    # nodes and 102,648 candidate images.  It is tested apart from COMMANDS,
    # which the last two tests run twice more
    assert main(["enumerate", "--type", "E7", "--budget", "3000000"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == _golden_bytes("enumerate-E7")
    classes = json.loads(out)["results"]["classes"]
    assert len(classes) == 39
    assert Counter(c["size"] for c in classes) == {14: 1, 17: 28, 18: 5, 19: 1, 20: 2, 22: 1, 27: 1}
    # the weighted mass: every maximal clique counted once per root
    assert sum(c["size"] * c["orbit_size"] for c in classes) == 138_288_528
    # the default budget of 2,000,000 stops inside the clique search
    assert main(["enumerate", "--type", "E7"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["exhaustive"] is False
    assert "clique search exceeded" in captured.err
