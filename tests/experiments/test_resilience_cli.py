"""``repro-experiments --resilience`` argument validation and wiring.

Bad specs and non-accepting experiments are usage errors (exit 2 with
the uniform ``available: [...]`` listing); a good spec flows through to
the cluster experiments and scenario runners.
"""

from repro.experiments.runner import main


def _run(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("REPRO_LEDGER_PATH",
                       str(tmp_path / "runs.jsonl"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return main(argv + ["--no-checkpoint", "--no-progress"])


class TestValidation:
    def test_unknown_preset_is_exit_2_and_lists_available(
            self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch,
                    ["--only", "figR", "--resilience", "turbo"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --resilience spec" in err
        assert "available:" in err
        assert "hedged" in err

    def test_unknown_knob_is_exit_2(self, tmp_path, monkeypatch,
                                    capsys):
        code = _run(tmp_path, monkeypatch,
                    ["--only", "figR", "--resilience", "jitter-ns=5"])
        assert code == 2
        assert "bad --resilience spec" in capsys.readouterr().err

    def test_inactive_policy_is_exit_2(self, tmp_path, monkeypatch,
                                       capsys):
        code = _run(tmp_path, monkeypatch,
                    ["--only", "figR", "--resilience",
                     "deadline-ns=0"])
        assert code == 2
        assert "inactive" in capsys.readouterr().err

    def test_non_finite_knob_is_exit_2_and_names_the_field(
            self, tmp_path, monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch,
                    ["--only", "figR", "--resilience",
                     "deadline-ns=nan,retries=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "deadline_ns must be finite" in err
        assert "inactive" not in err

    def test_non_accepting_experiment_is_exit_2(self, tmp_path,
                                                monkeypatch, capsys):
        code = _run(tmp_path, monkeypatch,
                    ["fig3", "--resilience", "hedged"])
        assert code == 2
        err = capsys.readouterr().err
        assert "do not accept a resilience policy" in err
        assert "fig3" in err


class TestWiring:
    def test_policy_flows_into_a_scenario_run(self, tmp_path,
                                              monkeypatch, capsys):
        save = tmp_path / "out"
        code = _run(tmp_path, monkeypatch,
                    ["scn-steady-baseline", "--resilience",
                     "deadline-ns=400000", "--save", str(save)])
        assert code == 0
        capsys.readouterr()
        assert (save / "scn-steady-baseline.txt").exists()
