"""Tests for the acceptance-matrix validation module and trace extras."""

from repro.validation import CheckResult, ValidationReport, validate_all


class TestValidationReport:
    def test_all_pass(self):
        r = ValidationReport(checks=[
            CheckResult("a", True, "1", "1", 0.1),
            CheckResult("b", True, "2", "2", 0.1),
        ])
        assert r.passed
        assert "2/2 claims reproduced" in r.summary()

    def test_one_fail(self):
        r = ValidationReport(checks=[
            CheckResult("a", True, "1", "1", 0.1),
            CheckResult("b", False, "0", "2", 0.1),
        ])
        assert not r.passed
        assert "FAIL" in r.summary()


class TestValidateAll:
    def test_full_matrix_reproduces(self):
        """The headline test of the whole repository: every claim in
        the acceptance matrix passes at reduced resolution."""
        rep = validate_all(n_numeric=128, max_tiles=8)
        assert rep.passed, "\n" + rep.summary()
        assert len(rep.checks) >= 9

    def test_check_captures_exceptions(self):
        from repro.validation import _check
        rep = ValidationReport()
        _check(rep, "boom", "no crash", lambda: 1 / 0)
        assert not rep.checks[0].passed
        assert "error" in rep.checks[0].measured


class TestAsciiGantt:
    def test_renders(self):
        from repro.dist import DistMatrix, ProcessGrid
        from repro.machines import summit
        from repro.obs import TimelineSink, ascii_gantt
        from repro.runtime import Runtime, simulate
        from repro.runtime.scheduler import taskbased_config
        from repro.tiled import geqrf

        rt = Runtime(ProcessGrid(2, 2), numeric=False)
        a = DistMatrix(rt, 512, 256, 64)
        geqrf(rt, a)
        sink = TimelineSink()
        simulate(rt.graph, taskbased_config(summit(), 2, 2, use_gpu=False),
                 sink=sink)
        chart = ascii_gantt(sink, width=40)
        lines = chart.splitlines()
        assert lines[0].startswith("gantt")
        rows = [ln for ln in lines if ln.startswith("r")]
        assert len(rows) == 4  # one strip per rank
        assert all(len(ln) == len(rows[0]) for ln in rows)
        # Some panel/update letters must appear.
        body = "".join(rows)
        assert any(ch in body for ch in "gtu")
