"""``effective_cpu_count`` and the ``--jobs`` oversubscription note.

Containers routinely report the machine's core count while pinning the
process to fewer; workers above the usable count would only fight for
the same cores (BENCH history: suite speedup 0.835 at ``--jobs 4`` on
one CPU), so ``repro-experiments`` caps the worker count and says so
up front.
"""

import pytest

from repro.errors import SimulationError
from repro.parallel import effective_cpu_count


class TestEffectiveCpuCount:
    def test_positive_without_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_EFFECTIVE_CPUS", raising=False)
        assert effective_cpu_count() >= 1

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", "3")
        assert effective_cpu_count() == 3

    @pytest.mark.parametrize("bad", ["zero", "0", "-2", "1.5"])
    def test_bad_override_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", bad)
        with pytest.raises(SimulationError):
            effective_cpu_count()


class TestExperimentsCliWarning:
    def _run(self, monkeypatch, capsys, jobs):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", "1")
        code = main(["fig3", "--jobs", str(jobs), "--no-cache",
                     "--no-ledger", "--no-checkpoint",
                     "--no-progress"])
        assert code == 0
        return capsys.readouterr().err

    def test_oversubscribed_jobs_warns(self, monkeypatch, capsys):
        err = self._run(monkeypatch, capsys, jobs=2)
        assert "jobs-oversubscribed" in err

    def test_fitting_jobs_stays_quiet(self, monkeypatch, capsys):
        err = self._run(monkeypatch, capsys, jobs=1)
        assert "jobs-oversubscribed" not in err


class TestOneCpuRunsInline:
    def test_jobs_2_starts_no_worker_and_matches_serial(
            self, monkeypatch, capsys, starts):
        from repro.experiments.runner import main

        argv = ["fig2", "fig3", "scn-steady-baseline", "--no-cache",
                "--no-ledger", "--no-checkpoint", "--no-progress"]
        monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", "1")
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert starts == []
        assert main(argv) == 0
        assert capsys.readouterr().out == parallel


class TestProgressNote:
    def test_note_lands_as_warn_event_off_tty(self, capsys):
        from repro.obs import RunHooks

        reporter = RunHooks(1, tty=False)
        reporter.note("note: something advisory")
        assert "something advisory" in capsys.readouterr().err

    def test_note_replaces_status_line_on_tty(self):
        import io

        from repro.obs import RunHooks

        stream = io.StringIO()
        reporter = RunHooks(2, stream=stream, tty=True)
        reporter.unit_started("unit-a")
        reporter.note("note: heads up")
        text = stream.getvalue()
        assert "note: heads up\n" in text
        # The status line was erased before the note printed.
        assert reporter._line_width == 0
