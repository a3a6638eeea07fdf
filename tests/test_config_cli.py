import json
import os
import subprocess
import sys

import numpy as np
import pytest

import towb
from towb.cli import main
from towb.config import load_config, parse_config
from towb.errors import ConfigError

FIXTURE_DIR = os.path.join(os.path.dirname(towb.__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


SYS_A = fixture("sys_a.cfg")
SYS_B = fixture("sys_b.cfg")
SYS_C = fixture("sys_c.cfg")
SYS_D = fixture("sys_d.cfg")


class TestParse:
    def test_fixture_files_parse_and_build(self):
        for path in (SYS_A, SYS_B, SYS_C, SYS_D):
            cfg = load_config(path)
            system = cfg.build_system()
            lam = cfg.build_measure()
            assert system.n_branches == 2
            assert lam.total() == pytest.approx(1.0, abs=1e-9)

    def test_round_trip(self):
        for path in (SYS_A, SYS_B, SYS_C, SYS_D):
            cfg = load_config(path)
            assert parse_config(cfg.emit()) == cfg

    def test_probability_sum_error_names_field(self):
        text = ("[system]\nbranch_slopes = [0.5, 0.5]\n"
                "branch_offsets = [0.0, 0.5]\nprobabilities = [0.6, 0.6]\n")
        cfg = parse_config(text)
        with pytest.raises(ConfigError, match="sum to 1"):
            cfg.build_system()

    def test_sigma_mismatch_error(self):
        text = ("[system]\nbranch_slopes = [0.5, 0.5]\n"
                "branch_offsets = [0.0, 0.5]\nprobabilities = [0.5, 0.5]\n"
                "sigma_slope = 3\n")
        with pytest.raises(ConfigError, match="left inverse"):
            parse_config(text).build_system()

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[system]\nwhatever = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\n")

    def test_syntax_error_location(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[system]\nbranch_slopes = [0.5]\noops\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="branch_offsets"):
            parse_config("[system]\nbranch_slopes = [0.5, 0.5]\n"
                         "probabilities = [0.5, 0.5]\n")

    def test_atom_measure_built(self):
        cfg = load_config(SYS_C)
        lam = cfg.build_measure()
        assert lam.atoms == ((0.0, 1.0),)


class TestCli:
    def test_verify_sys_b_pass_and_skip(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["verify", "--config", SYS_B, "--trials", "10",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        statuses = [c["status"] for c in payload["checks"]]
        assert statuses.count("PASS") == 6
        assert statuses.count("SKIPPED") == 1

    def test_verify_sys_a_all_pass(self, capsys):
        assert main(["verify", "--config", SYS_A, "--trials", "5"]) == 0

    @pytest.mark.parametrize("command", ["verify", "quasi"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, capsys, command, trials):
        # with no test function drawn every check would pass vacuously
        assert main([command, "--config", SYS_A, "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "field 'trials'" in err

    def test_cylinder_example(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["cylinder", "--config", SYS_A, "--x", "0.3",
                     "--sets", "[0,0.25)", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["mass"] == pytest.approx(0.5)

    def test_defect_sys_c(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["defect", "--config", SYS_C, "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["membership"] is False
        assert payload["results"]["defect"] == pytest.approx(0.5, abs=1e-12)

    def test_defect_plot_data_pushes_no_extra_measure(self, capsys, tmp_path,
                                                      monkeypatch):
        # the density written for plotting comes from the decomposition the
        # defect was read from, so plotting costs no further pushforward
        import towb.transfer

        calls = []
        original = towb.transfer.pushforward

        def counting(mu, branch):
            calls.append(mu.n_cells)
            return original(mu, branch)

        monkeypatch.setattr(towb.transfer, "pushforward", counting)
        plain, plotted = tmp_path / "plain.json", tmp_path / "plotted.json"
        assert main(["defect", "--config", SYS_A, "--json", str(plain)]) == 0
        pushes_plain = len(calls)
        assert main(["defect", "--config", SYS_A, "--json", str(plotted),
                     "--plot-data", str(tmp_path / "plots")]) == 0
        assert len(calls) - pushes_plain == pushes_plain > 0
        density = np.loadtxt(tmp_path / "plots" / "density.dat")
        assert density.shape == (1024, 2)
        assert np.allclose(density[:, 1], 1.0)
        a, b = (json.loads(p.read_text()) for p in (plain, plotted))
        assert a["results"] == b["results"]

    def test_markov_results(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["markov", "--config", SYS_A, "--x", "0.3",
                     "--set-a", "[0,0.25)", "--set-b", "[0,0.5)",
                     "--n", "4", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["m_1"] == 0.25
        assert payload["results"]["m_4"] == pytest.approx(0.125)

    def test_measure_subcommand(self, capsys):
        assert main(["measure", "--config", SYS_D, "--steps", "3"]) == 0

    def test_harmonic_subcommand(self, capsys):
        assert main(["harmonic", "--config", SYS_B, "--k-max", "3",
                     "--n-max", "4"]) == 0

    def test_harmonic_cascade_on_swapped_branches(self, capsys, tmp_path):
        # listing the doubling branches in the other order is the same
        # operator, so the cascade check still applies
        text = load_config(SYS_B).emit()
        assert "branch_offsets = [0.0, 0.5]" in text
        text = text.replace("branch_offsets = [0.0, 0.5]",
                            "branch_offsets = [0.5, 0.0]")
        cfg = tmp_path / "swapped.cfg"
        cfg.write_text(text)
        out = tmp_path / "rep.json"
        code = main(["harmonic", "--config", str(cfg), "--k-max", "3",
                     "--n-max", "4", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        cascade = [c for c in payload["checks"]
                   if c["name"] == "fourier_cascade"]
        assert [c["status"] for c in cascade] == ["PASS"]

    def test_quasi_subcommand(self, capsys):
        assert main(["quasi", "--config", SYS_A, "--trials", "3"]) == 0

    def test_harmonic_from_measure_subcommand(self, capsys):
        assert main(["harmonic-from-measure", "--config", SYS_A]) == 0

    def test_sample_subcommand_small(self, capsys, tmp_path):
        cfg_text = load_config(SYS_A).emit().replace("paths = 100000",
                                                     "paths = 5000")
        small = tmp_path / "small.cfg"
        small.write_text(cfg_text)
        assert main(["sample", "--config", str(small), "--battery", "6"]) == 0

    def test_config_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[system]\nbranch_slopes = [0.5, 0.5]\n"
                       "branch_offsets = [0.0, 0.5]\n"
                       "probabilities = [0.6, 0.6]\n")
        assert main(["harmonic", "--config", str(bad)]) == 2
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["harmonic", "--config", "/nonexistent.cfg"]) == 2

    def test_check_failure_exit_code(self, capsys, tmp_path):
        # an impossible solver tolerance leaves the eigensolve unconverged,
        # failing the harmonic check
        text = load_config(SYS_B).emit().replace("tol = 1e-12",
                                                 "tol = 1e-16")
        text = text.replace("max_iter = 2000", "max_iter = 2")
        cfg = tmp_path / "stall.cfg"
        cfg.write_text(text)
        assert main(["harmonic", "--config", str(cfg)]) == 1

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
        # path-space commands need a converged fixed function; an
        # unconverged solve is a numerical failure, not a check failure
        text = load_config(SYS_B).emit().replace("tol = 1e-12",
                                                 "tol = 1e-16")
        text = text.replace("max_iter = 2000", "max_iter = 2")
        cfg = tmp_path / "stall.cfg"
        cfg.write_text(text)
        code = main(["cylinder", "--config", str(cfg), "--x", "0.3",
                     "--sets", "[0,0.25)"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_verify_unconverged_solve_exit_code(self, capsys, tmp_path):
        # the identity suite needs a converged fixed function, like the
        # path-space commands
        text = load_config(SYS_B).emit()
        assert "max_iter = 2000" in text
        text = text.replace("max_iter = 2000", "max_iter = 1")
        cfg = tmp_path / "one_step.cfg"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg), "--trials", "5"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_reports_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["quasi", "--config", SYS_B, "--trials", "3",
                  "--json", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_plot_data_written(self, capsys, tmp_path):
        plot_dir = tmp_path / "plots"
        main(["harmonic", "--config", SYS_A, "--plot-data", str(plot_dir)])
        data = np.loadtxt(plot_dir / "h.dat")
        assert data.shape == (1024, 2)
        assert np.allclose(data[:, 1], 1.0, atol=1e-9)

    def test_entry_point_runs_as_module(self, tmp_path):
        # the child process imports the towb this test imported
        package_root = os.path.dirname(os.path.dirname(towb.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "towb.cli", "cylinder", "--config", SYS_A,
             "--x", "0.3", "--sets", "[0,0.25)"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "mass = 0.5" in proc.stdout
