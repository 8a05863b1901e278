"""Analyzer core: suppressions, baseline ratchet, CLI, cycle detector."""

import argparse
import json

import networkx as nx
import pytest

from repro.errors import BudgetExceededError, ReproError
from repro.graphs.cycles import find_directed_cycle
from repro.lint import baseline
from repro.lint.cli import cmd_lint
from repro.lint.engine import Module, analyze_source, parse_suppressions, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.passes import all_passes, all_rules


class TestFindings:
    def test_ordering_is_by_location(self):
        a = Finding("a.py", 5, 0, "RA501", Severity.ERROR, "m", "f")
        b = Finding("a.py", 9, 0, "RA501", Severity.ERROR, "m", "f")
        c = Finding("b.py", 1, 0, "RA501", Severity.ERROR, "m", "f")
        assert sorted([c, b, a]) == [a, b, c]

    def test_baseline_key_and_render(self):
        f = Finding("pkg/x.py", 5, 2, "RL101", Severity.ERROR, "msg", "C.m")
        assert f.baseline_key == "RL101:pkg/x.py:C.m"
        assert "pkg/x.py:5:2" in f.render()
        assert "RL101" in f.render()
        assert f.as_dict()["severity"] == "error"

    def test_registry_exposes_every_documented_rule(self):
        ids = {rule.id for rule in all_rules()}
        assert ids == {
            "RL101", "RL102", "RL201", "RL202", "RD301", "RD302",
            "RE401", "RE402", "RE403", "RE404", "RA501", "RA502", "RA503",
            "RC601", "RC602", "RC603", "RB701", "RB702", "RR801", "RR802",
        }
        assert len(all_passes()) == 8


class TestSuppressions:
    def test_same_line(self):
        sup = parse_suppressions("x = risky()  # repro: allow[RL101]\n")
        assert sup == {1: {"RL101"}}

    def test_comment_only_line_covers_next_statement(self):
        source = (
            "# repro: allow[RD301, RD302]\n"
            "\n"
            "# another comment\n"
            "y = 2\n"
        )
        sup = parse_suppressions(source)
        assert sup[1] == {"RD301", "RD302"}
        assert sup[4] == {"RD301", "RD302"}

    def test_suppression_removes_finding(self):
        dirty = "def f(x=[]):\n    return x\n"
        assert any(f.rule == "RA501" for f in analyze_source(dirty))
        clean = "def f(x=[]):  # repro: allow[RA501]\n    return x\n"
        assert not analyze_source(clean, select=["RA501"])

    def test_star_suppresses_everything(self):
        source = "def f(x=[]):  # repro: allow[*]\n    return x\n"
        assert not analyze_source(source, select=["RA501"])

    def test_wrong_rule_does_not_suppress(self):
        source = "def f(x=[]):  # repro: allow[RL101]\n    return x\n"
        assert any(f.rule == "RA501" for f in analyze_source(source))

    def test_multiline_statement_trailing_comment(self):
        # the finding anchors at the first line of the signature; the
        # comment reads best on the closing line
        source = (
            "def f(\n"
            "    x=[],\n"
            "):  # repro: allow[RA501]\n"
            "    return x\n"
        )
        assert not analyze_source(source, select=["RA501"])

    def test_decorator_line_covers_decorated_def(self):
        source = (
            "import functools\n"
            "@functools.lru_cache  # repro: allow[RA501]\n"
            "def f(x=[]):\n"
            "    return x\n"
        )
        assert not analyze_source(source, select=["RA501"])

    def test_body_suppression_does_not_blanket_the_header(self):
        source = (
            "def f(x=[]):\n"
            "    return x  # repro: allow[RA501]\n"
        )
        assert any(f.rule == "RA501" for f in analyze_source(source))


class TestModule:
    def test_qualname_nesting(self):
        module = Module.from_source(
            "class C:\n"
            "    def m(self):\n"
            "        x = 1\n"
        )
        assign = module.tree.body[0].body[0].body[0]
        assert module.qualname(assign) == "C.m"
        assert module.qualname(module.tree.body[0]) == "C"

    def test_syntax_error_becomes_error_string(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = run_lint([tmp_path], root=tmp_path)
        assert result.findings == []
        assert len(result.errors) == 1
        assert "bad.py" in result.errors[0]


def _finding(rule="RA501", path="a.py", symbol="f", line=1):
    return Finding(path, line, 0, rule, Severity.ERROR, "m", symbol)


class TestBaseline:
    def test_ratchet_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [_finding(line=1), _finding(line=9)]
        baseline.save(path, findings)
        entries = baseline.load(path)
        assert entries == {"RA501:a.py:f": 2}

    def test_diff_within_budget_is_ok(self):
        entries = {"RA501:a.py:f": 2}
        d = baseline.diff([_finding(line=1), _finding(line=9)], entries)
        assert d.ok and len(d.baselined) == 2 and not d.new and not d.stale

    def test_diff_beyond_budget_fails(self):
        entries = {"RA501:a.py:f": 1}
        d = baseline.diff([_finding(line=1), _finding(line=9)], entries)
        assert not d.ok
        assert len(d.new) == 1 and len(d.baselined) == 1

    def test_fixed_debt_reported_stale(self):
        d = baseline.diff([], {"RA501:a.py:f": 2})
        assert d.ok
        assert list(d.stale) == ["RA501:a.py:f"]

    def test_missing_file_is_empty(self, tmp_path):
        assert baseline.load(tmp_path / "nope.json") == {}

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        with pytest.raises(ReproError):
            baseline.load(path)
        path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ReproError):
            baseline.load(path)


def _args(tmp_path, **kw):
    defaults = dict(
        paths=[], format="text", baseline=str(tmp_path / "baseline.json"),
        no_baseline=False, write_baseline=False, select=None, list_rules=False,
        changed=False,
    )
    defaults.update(kw)
    return argparse.Namespace(**defaults)


class TestCli:
    def test_ratchet_workflow(self, tmp_path, capsys):
        dirty = tmp_path / "mod.py"
        dirty.write_text("def f(x=[]):\n    return x\n")

        # new finding, no baseline: fail
        assert cmd_lint(_args(tmp_path, paths=[str(dirty)])) == 1
        # ratchet it
        assert cmd_lint(_args(tmp_path, paths=[str(dirty)],
                              write_baseline=True)) == 0
        # baselined debt: pass
        assert cmd_lint(_args(tmp_path, paths=[str(dirty)])) == 0
        # fix the file: pass, stale entry reported
        dirty.write_text("def f(x=None):\n    return x\n")
        capsys.readouterr()
        assert cmd_lint(_args(tmp_path, paths=[str(dirty)])) == 0
        assert "stale" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "mod.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        code = cmd_lint(_args(tmp_path, paths=[str(dirty)], format="json"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["ok"] is False
        assert payload["new"][0]["rule"] == "RA501"

    def test_select_filters_rules(self, tmp_path):
        dirty = tmp_path / "mod.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert cmd_lint(_args(tmp_path, paths=[str(dirty)],
                              select="RL101")) == 0

    def test_list_rules(self, tmp_path, capsys):
        assert cmd_lint(_args(tmp_path, list_rules=True)) == 0
        out = capsys.readouterr().out
        assert "RL101" in out and "RA503" in out

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            cmd_lint(_args(tmp_path, paths=[str(tmp_path / "ghost.py")]))


class TestFindDirectedCycle:
    def test_acyclic(self):
        g = nx.DiGraph([("a", "b"), ("b", "c"), ("a", "c")])
        assert find_directed_cycle(g) is None

    def test_self_loop(self):
        g = nx.DiGraph([("a", "a")])
        assert find_directed_cycle(g) == ["a"]

    def test_two_cycle(self):
        g = nx.DiGraph([("a", "b"), ("b", "a")])
        cycle = find_directed_cycle(g)
        assert sorted(cycle) == ["a", "b"]

    def test_longer_cycle_is_exact(self):
        g = nx.DiGraph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")])
        cycle = find_directed_cycle(g)
        assert sorted(cycle) == ["b", "c", "d"]
        # the returned order is a real walk
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(u, v)

    def test_deterministic(self):
        edges = [("b", "a"), ("a", "b"), ("c", "a"), ("a", "c")]
        runs = {tuple(find_directed_cycle(nx.DiGraph(edges)))
                for _ in range(5)}
        assert len(runs) == 1

    def test_budget(self):
        g = nx.DiGraph([(i, i + 1) for i in range(100)])
        with pytest.raises(BudgetExceededError):
            find_directed_cycle(g, budget=3)
