"""Runner mechanics: pragmas, the baseline file, CLI formats and codes."""

import json
import textwrap

import pytest

from repro.check import base, events
from repro.check.baseline import Baseline, BaselineError
from repro.check.runner import run_check
from repro.cli import main as cli_main
from repro.errors import ReproError

from .conftest import FIXTURES


class TestPragmas:
    def test_ignore_suppresses_only_its_line(self, check_fixture):
        report = check_fixture("pragma_mixed.py", select=["determinism"])
        # one rule-scoped ignore, one bare ignore, one live violation
        assert len(report.suppressed) == 2
        assert len(report.findings) == 1
        live = report.findings[0]
        suppressed_lines = {f.line for f in report.suppressed}
        assert live.line not in suppressed_lines

    def test_hot_pragma_reaches_slots_checker(self, check_fixture):
        report = check_fixture("slots_bad.py", select=["slots"])
        assert any(
            "custom_loop" in f.message for f in report.findings
        )

    def test_pragma_in_decorated_def_body(self, check_fixture):
        report = check_fixture("pragma_edges.py", select=["determinism"])
        # suppression inside a decorated body works; a pragma on the
        # decorator line does NOT leak onto body lines
        assert len(report.suppressed) == 2
        assert len(report.findings) == 2
        suppressed = {f.line for f in report.suppressed}
        live = {f.line for f in report.findings}
        assert suppressed.isdisjoint(live)

    def test_pragma_on_multiline_expression_is_line_scoped(
        self, check_fixture
    ):
        report = check_fixture("pragma_edges.py", select=["determinism"])
        # the pragma on the violating call's own physical line
        # suppresses; one on the closing paren's line does not
        src = (FIXTURES / "pragma_edges.py").read_text().splitlines()
        for f in report.suppressed:
            assert "repro: ignore" in src[f.line - 1]
        for f in report.findings:
            assert "repro: ignore" not in src[f.line - 1]


class TestBaseline:
    def test_roundtrip_suppresses_exactly(self, tmp_path, check_fixture):
        raw = check_fixture("units_bad.py", select=["units"])
        assert raw.findings
        path = tmp_path / "baseline.json"
        Baseline.from_findings(raw.findings).save(path)

        report = run_check(
            [FIXTURES / "units_bad.py"],
            base=FIXTURES,
            baseline=Baseline.load(path),
            select=["units"],
        )
        assert report.findings == []
        assert len(report.baselined) == len(raw.findings)
        assert report.stale_baseline == []
        assert not report.failed(strict=True)

    def test_counted_entries_let_the_extra_occurrence_through(
        self, check_fixture
    ):
        raw = check_fixture("units_bad.py", select=["units"])
        # keep one fewer occurrence of the first key than really exists
        short = Baseline.from_findings(raw.findings[:-1])
        kept, suppressed, stale = short.apply(raw.findings)
        assert len(suppressed) == len(raw.findings) - 1
        assert len(kept) == 1
        assert stale == []

    def test_stale_entries_reported_and_fail_strict(self, check_fixture):
        raw = check_fixture("units_clean.py", select=["units"])
        ghost = Baseline.from_findings(
            check_fixture("units_bad.py", select=["units"]).findings
        )
        kept, suppressed, stale = ghost.apply(raw.findings)
        assert kept == [] and suppressed == []
        assert stale  # entries matching nothing any more
        report = run_check(
            [FIXTURES / "units_clean.py"],
            base=FIXTURES,
            baseline=ghost,
            select=["units"],
        )
        assert not report.failed(strict=False)
        assert report.failed(strict=True)

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BaselineError):
            Baseline.load(path)


class TestRunner:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ReproError, match="unknown rule"):
            run_check([FIXTURES / "units_bad.py"], select=["no-such-rule"])

    def test_strict_promotes_warnings(self, check_fixture):
        report = check_fixture("determinism_bad.py", select=["determinism"])
        warn_only = [f for f in report.findings if f in report.warnings]
        assert warn_only
        assert report.failed(strict=True)

    def test_summary_mentions_counts(self, check_fixture):
        report = check_fixture("determinism_bad.py", select=["determinism"])
        summary = report.summary()
        assert "1 files" in summary
        assert "5 errors" in summary
        assert "2 warnings" in summary


class TestFactsComputedOnce:
    """Module- and project-wide facts are derived once per run, not once
    per function or per module that asks for them."""

    _FILES = {
        "events_mod.py": """
            class Event:
                pass

            class Spun(Event):
                pass
        """,
        "daemon.py": """
            import asyncio
            import time as clock

            from events_mod import Spun

            def _nap():
                clock.sleep(0.1)

            async def serve(bus):
                bus(Spun())
                await asyncio.to_thread(_nap)

            async def tick():
                await asyncio.sleep(0)
        """,
        "worker.py": """
            import random as rnd

            def draw(seed):
                return rnd.Random(seed).random()

            def wait_s(delay_s):
                return draw(delay_s)
        """,
    }

    def _project(self, tmp_path):
        for name, source in self._FILES.items():
            (tmp_path / name).write_text(textwrap.dedent(source))
        return tmp_path

    def test_import_aliases_walk_each_module_once(self, tmp_path, monkeypatch):
        walks = {}
        real = base.import_aliases

        def counting(tree):
            walks[id(tree)] = walks.get(id(tree), 0) + 1
            return real(tree)

        monkeypatch.setattr(base, "import_aliases", counting)
        root = self._project(tmp_path)
        report = run_check([root], base=root)
        assert report.files_checked == len(self._FILES)
        assert sorted(walks.values()) == [1] * len(self._FILES)

    def test_event_sites_built_once_per_run(self, tmp_path, monkeypatch):
        builds = []

        class Counting(events._EventSites):
            def __init__(self, project):
                builds.append(project)
                super().__init__(project)

        monkeypatch.setattr(events, "_EventSites", Counting)
        root = self._project(tmp_path)
        report = run_check([root], base=root)
        assert report.findings == []
        assert len(builds) == 1
        run_check([root], base=root)
        assert len(builds) == 2  # a fresh project, a fresh index


class TestCli:
    def test_text_format_and_exit_code(self, capsys):
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_bad.py"),
                "--no-baseline",
                "--select", "units",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "error[units]" in out
        assert "repro check:" in out

    def test_json_format(self, capsys):
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_bad.py"),
                "--no-baseline",
                "--format", "json",
                "--select", "units",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["failed"] is True
        assert payload["files_checked"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"units"}
        first = payload["findings"][0]
        assert {"rule", "severity", "path", "line", "col", "message"} <= set(
            first
        )

    def test_clean_file_exits_zero(self, capsys):
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_clean.py"),
                "--no-baseline",
                "--strict",
                "--select", "units",
            ]
        )
        assert rc == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_update_baseline_writes_file(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_bad.py"),
                "--baseline", str(path),
                "--update-baseline",
                "--select", "units",
            ]
        )
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert len(data["entries"]) == 3
        # a second run against the fresh baseline is green, even strict
        rc = cli_main(
            [
                "check",
                str(FIXTURES / "units_bad.py"),
                "--baseline", str(path),
                "--strict",
                "--select", "units",
            ]
        )
        capsys.readouterr()
        assert rc == 0

    def test_update_baseline_with_select_keeps_other_rules(
        self, tmp_path, capsys
    ):
        # Regression: --update-baseline --select RULE used to rewrite
        # the whole file from the selected-rules run, silently dropping
        # every other rule's accepted entries.
        path = tmp_path / "baseline.json"
        paths = [
            str(FIXTURES / "units_bad.py"),
            str(FIXTURES / "determinism_bad.py"),
        ]
        rc = cli_main(
            ["check", *paths, "--baseline", str(path), "--update-baseline"]
        )
        assert rc == 0
        before = json.loads(path.read_text())["entries"]
        assert {"units", "determinism"} <= {e["rule"] for e in before}

        rc = cli_main(
            [
                "check", *paths,
                "--baseline", str(path),
                "--update-baseline",
                "--select", "units",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "kept" in out
        after = json.loads(path.read_text())["entries"]
        assert {e["rule"] for e in after} == {e["rule"] for e in before}
        assert after == before  # nothing actually changed in the tree

        # the merged baseline still greens a full strict run
        rc = cli_main(
            ["check", *paths, "--baseline", str(path), "--strict"]
        )
        capsys.readouterr()
        assert rc == 0

    def test_pragmas_surface_in_json_and_exit_codes(self, capsys):
        # live findings fail even with pragmas present...
        rc = cli_main(
            [
                "check", str(FIXTURES / "pragma_edges.py"),
                "--no-baseline", "--format", "json",
                "--select", "determinism",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["pragma_ignored"] == 2
        assert len(payload["findings"]) == 2
    def test_fully_suppressed_file_is_green_even_strict(
        self, tmp_path, capsys
    ):
        src = tmp_path / "suppressed.py"
        src.write_text(
            "import time\n"
            "now = time.time()  # repro: ignore[determinism]\n"
        )
        rc = cli_main(
            [
                "check", str(src),
                "--no-baseline", "--format", "json", "--strict",
                "--select", "determinism",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["failed"] is False
        assert payload["pragma_ignored"] == 1
        assert payload["findings"] == []

    def test_list_rules(self, capsys):
        rc = cli_main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule in (
            "determinism", "units", "unitsflow", "asyncsafe",
            "resource", "fastpath", "events", "slots",
        ):
            assert rule in out

    def test_explain_prints_rule_documentation(self, capsys):
        rc = cli_main(["check", "--explain", "unitsflow"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("unitsflow — ")
        assert "How to fix:" in out
        assert "Example finding:" in out

    def test_explain_covers_every_registered_rule(self, capsys):
        from repro.check.base import CHECKERS

        for rule in CHECKERS:
            rc = cli_main(["check", "--explain", rule])
            out = capsys.readouterr().out
            assert rc == 0
            assert "How to fix:" in out, rule
            assert "Example finding:" in out, rule

    def test_explain_unknown_rule_exits_two(self, capsys):
        rc = cli_main(["check", "--explain", "no-such-rule"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown rule" in err
