"""The lint engine and CLI: discovery, suppressions, baseline, exits.

Includes the ISSUE acceptance checks: the repository self-lints clean,
and a scratch file seeded with REPRO001/REPRO002 violations fails with
exact ``path:line:col CODE`` findings and exit code 1.
"""

import json
import os

import pytest

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cli import main
from repro.lint.engine import (
    collect_files,
    lint_file,
    lint_paths,
    select_rules,
)
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

VIOLATING_SOURCE = """\
import random
import time


def stamp():
    return time.time()


def pick(items):
    return random.choice(items)
"""

CLEAN_SOURCE = """\
import random


def pick(items, seed):
    return random.Random(seed).choice(items)
"""


@pytest.fixture
def violating_file(tmp_path):
    path = tmp_path / "scratch_violation.py"
    path.write_text(VIOLATING_SOURCE)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SOURCE)
    return str(path)


class TestCollectFiles:
    def test_files_pass_through_and_sort(self, tmp_path):
        a = tmp_path / "a.py"
        b = tmp_path / "sub" / "b.py"
        b.parent.mkdir()
        a.write_text("")
        b.write_text("")
        (tmp_path / "notes.txt").write_text("")
        got = collect_files([str(tmp_path)])
        assert got == sorted([str(a), str(b)])

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "x.py").write_text("")
        assert collect_files([str(tmp_path)]) == []


class TestSelectRules:
    def test_default_is_all(self):
        assert select_rules() == list(ALL_RULES)

    def test_select_and_ignore(self):
        only = select_rules(select=["REPRO001"])
        assert [r.code for r in only] == ["REPRO001"]
        rest = select_rules(ignore=["REPRO001"])
        assert "REPRO001" not in [r.code for r in rest]

    def test_unknown_code_rejected(self):
        # A mistyped or retired code would otherwise select no rule.
        for code in ("BOGUS1", "REPRO999", "REPRO006"):
            with pytest.raises(ValueError, match=code):
                select_rules(select=[code])
            with pytest.raises(ValueError, match=code):
                select_rules(ignore=[code])

    def test_contract_and_parse_error_codes_accepted(self):
        assert select_rules(select=["REPROC01", "REPROC06"]) == []
        assert select_rules(select=["REPRO900"]) == []


class TestLintFile:
    def test_violations_found(self, violating_file):
        findings, suppressed = lint_file(violating_file, ALL_RULES)
        assert [f.code for f in findings] == ["REPRO001", "REPRO002"]
        assert suppressed == 0

    def test_inline_suppression_counted(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text(
            "import time\n"
            "t = time.time()  # repro-lint: disable=REPRO001\n"
        )
        findings, suppressed = lint_file(str(path), ALL_RULES)
        assert findings == []
        assert suppressed == 1

    def test_file_pragma_suppresses_whole_file(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text(
            "# repro-lint: disable-file=REPRO002\n"
            "import random\n"
            "a = random.random()\n"
            "b = random.random()\n"
        )
        findings, suppressed = lint_file(str(path), ALL_RULES)
        assert findings == []
        assert suppressed == 2

    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        findings, _ = lint_file(str(path), ALL_RULES)
        assert [f.code for f in findings] == ["REPRO900"]
        assert findings[0].line == 1


class TestAcceptance:
    def test_repository_self_lints_clean(self):
        paths = [
            os.path.join(REPO_ROOT, d)
            for d in ("src", "benchmarks", "examples")
            if os.path.isdir(os.path.join(REPO_ROOT, d))
        ]
        result = lint_paths(paths)
        assert result.findings == [], [
            f.format_text() for f in result.findings
        ]
        assert result.exit_code == 0
        assert result.files_checked > 100

    def test_seeded_violation_exits_1_with_exact_findings(
        self, violating_file, capsys
    ):
        code = main([violating_file])
        out = capsys.readouterr().out
        assert code == 1
        shown = violating_file.replace(os.sep, "/")
        assert f"{shown}:6:12 REPRO001" in out
        assert f"{shown}:10:12 REPRO002" in out


class TestCli:
    def test_clean_file_exits_0(self, clean_file, capsys):
        assert main([clean_file]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_code_is_usage_error(self, clean_file, capsys):
        assert main([clean_file, "--select", "NOPE"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_repro_code_is_usage_error(self, clean_file, capsys):
        assert main([clean_file, "--select", "REPRO999"]) == 2
        assert "REPRO999" in capsys.readouterr().err

    def test_select_narrows(self, violating_file, capsys):
        assert main([violating_file, "--select", "REPRO002"]) == 1
        out = capsys.readouterr().out
        assert "REPRO002" in out
        assert "REPRO001" not in out

    def test_ignore_everything_exits_0(self, violating_file, capsys):
        assert (
            main([violating_file, "--ignore", "REPRO001,REPRO002"]) == 0
        )
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, violating_file, capsys):
        code = main([violating_file, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["schema"] == "repro.lint/1"
        assert doc["exit_code"] == 1
        assert [f["code"] for f in doc["findings"]] == [
            "REPRO001",
            "REPRO002",
        ]
        assert {"path", "line", "col", "code", "message"} <= set(
            doc["findings"][0]
        )

    def test_write_baseline_then_clean(
        self, violating_file, tmp_path, capsys
    ):
        baseline = str(tmp_path / "baseline.json")
        assert (
            main(
                [violating_file, "--baseline", baseline, "--write-baseline"]
            )
            == 0
        )
        assert "wrote 2 finding(s)" in capsys.readouterr().out
        # Baselined findings no longer fail the run...
        assert main([violating_file, "--baseline", baseline]) == 0
        assert "(2 baselined" in capsys.readouterr().out
        # ...but a NEW violation still does.
        with open(violating_file, "a") as fp:
            fp.write("\n\nx = random.random()\n")
        assert main([violating_file, "--baseline", baseline]) == 1


class TestGithubFormat:
    def test_annotations_carry_location_and_code(
        self, violating_file, capsys
    ):
        code = main([violating_file, "--format", "github"])
        out = capsys.readouterr().out
        assert code == 1
        shown = violating_file.replace(os.sep, "/")
        assert (
            f"::error file={shown},line=6,col=12,title=REPRO001::REPRO001 "
            in out
        )
        assert f"::error file={shown},line=10,col=12,title=REPRO002" in out
        assert "2 finding(s)" in out

    def test_clean_run_emits_no_annotations(self, clean_file, capsys):
        assert main([clean_file, "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "0 finding(s)" in out

    def test_newlines_in_messages_are_escaped(self):
        from repro.lint.engine import LintResult

        result = LintResult(
            findings=[Finding("a.py", 1, 1, "REPRO001", "line one\nline two")]
        )
        rendered = result.render_github()
        assert "line one%0Aline two" in rendered
        assert "\nline two" not in rendered.splitlines()[0]


class TestSelectedRulesLine:
    def test_full_catalog_echoed_to_stderr(self, clean_file, capsys):
        main([clean_file])
        err = capsys.readouterr().err
        assert (
            "repro-lint: selected rules: "
            "REPRO001,REPRO002,REPRO003,REPRO005,REPRO007,REPRO008" in err
        )

    def test_select_narrows_the_echo(self, clean_file, capsys):
        main([clean_file, "--select", "REPRO007,REPRO008"])
        err = capsys.readouterr().err
        assert "repro-lint: selected rules: REPRO007,REPRO008" in err


class TestContractFlag:
    def test_contract_run_over_a_clean_file_exits_zero(self, clean_file):
        args = [clean_file, "--contract", "--contract-max-states", "16"]
        assert main(args) == 0


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "b.json")
        findings = [
            Finding("a.py", 3, 1, "REPRO001", "msg one"),
            Finding("a.py", 9, 1, "REPRO001", "msg one"),  # same identity
            Finding("b.py", 1, 1, "REPRO002", "msg two"),
        ]
        assert write_baseline(path, findings) == 2  # deduplicated
        assert load_baseline(path) == {
            ("a.py", "REPRO001", "msg one"),
            ("b.py", "REPRO002", "msg two"),
        }

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == set()

    def test_identity_survives_line_moves(self, tmp_path, violating_file):
        baseline = str(tmp_path / "b.json")
        result = lint_paths([violating_file])
        write_baseline(baseline, result.findings)
        # Shift every finding down two lines; identities are line-free.
        with open(violating_file) as fp:
            source = fp.read()
        with open(violating_file, "w") as fp:
            fp.write("# moved\n# moved again\n" + source)
        shifted = lint_paths([violating_file], baseline_path=baseline)
        assert shifted.findings == []
        assert len(shifted.baselined) == 2

    def test_committed_baseline_is_empty(self):
        assert load_baseline(
            os.path.join(REPO_ROOT, "lint_baseline.json")
        ) == set()
