import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towb
from towb.cli import _COMMANDS, build_parser, main
from towb.config import RunConfig, load_config, parse_config
from towb.errors import ConfigError
from towb.solenoid import DEPTH_MAX

FIXTURE_DIR = os.path.join(os.path.dirname(towb.__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


SYS_A = fixture("sys_a.cfg")
SYS_B = fixture("sys_b.cfg")
SYS_C = fixture("sys_c.cfg")
SYS_D = fixture("sys_d.cfg")


def power_config(tmp_path, name: str, *replacements) -> str:
    """sys_b with branch probabilities 1/4 and 3/4, which no transition
    matrix covers, so that its harmonic function comes from power
    iteration; each ``(old, new)`` of ``replacements`` is then applied to
    the config text.  Returns the path of the config written."""
    text = load_config(SYS_B).emit()
    for old, new in (("probabilities = [0.5, 0.5]",
                      "probabilities = [0.25, 0.75]"), *replacements):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_missing_keys_take_run_config_defaults(self):
        # the defaults of every key left out are RunConfig's own
        text = ("[system]\nbranch_slopes = [0.5, 0.5]\n"
                "branch_offsets = [0.0, 0.5]\nprobabilities = [0.5, 0.5]\n")
        assert parse_config(text) == RunConfig([0.5, 0.5], [0.0, 0.5],
                                               [0.5, 0.5])

    @pytest.mark.parametrize("c", [1.0, 0.5, 2.0])
    def test_constant_weight_is_the_trig_constant_term(self, c):
        # value and constant_term fill the same field, and the two kinds
        # build the same weight from it
        head = ("[system]\nbranch_slopes = [0.5, 0.5]\n"
                "branch_offsets = [0.0, 0.5]\nprobabilities = [0.5, 0.5]\n")
        constant = parse_config(
            head + f'[weight]\nkind = "constant"\nvalue = {c}\n')
        trig = parse_config(
            head + f'[weight]\nkind = "trig"\nconstant_term = {c}\n')
        assert dataclasses.replace(constant, weight_kind="trig") == trig
        assert constant.build_weight() == trig.build_weight()


_FLOATS = st.floats(-1e6, 1e6, allow_nan=False)
_FLOAT_LISTS = st.lists(_FLOATS, max_size=4)


@st.composite
def _run_configs(draw) -> RunConfig:
    """Configs in canonical form: only the fields their weight and measure
    kinds emit are set."""
    kind = draw(st.sampled_from(["constant", "trig", "table"]))
    measure = draw(st.sampled_from(["lebesgue", "atoms"]))
    return RunConfig(
        branch_slopes=draw(_FLOAT_LISTS),
        branch_offsets=draw(_FLOAT_LISTS),
        probabilities=draw(_FLOAT_LISTS),
        sigma_slope=draw(st.none() | st.integers(2, 10**6)),
        weight_kind=kind,
        weight_const=draw(_FLOATS) if kind != "table" else 1.0,
        weight_cos=draw(_FLOAT_LISTS) if kind == "trig" else [],
        weight_sin=draw(_FLOAT_LISTS) if kind == "trig" else [],
        weight_table=(draw(st.lists(_FLOATS, min_size=1, max_size=4))
                      if kind == "table" else []),
        cells=draw(st.integers(2, 10**6)),
        solver_tol=draw(st.floats(1e-300, 1e3)),
        solver_max_iter=draw(st.integers(1, 10**6)),
        solver_seed=draw(st.integers(0, 2**32)),
        sampler_seed=draw(st.integers(0, 2**32)),
        sampler_paths=draw(st.integers(1, 10**6)),
        measure_kind=measure,
        measure_positions=draw(_FLOAT_LISTS) if measure == "atoms" else [],
        measure_masses=draw(_FLOAT_LISTS) if measure == "atoms" else [],
    )


@settings(max_examples=200, deadline=None)
@given(_run_configs())
def test_emit_parse_emit_round_trip(cfg):
    text = cfg.emit()
    parsed = parse_config(text)
    assert parsed == cfg
    assert parsed.emit() == text


@pytest.mark.parametrize("base, old, new, field", [
    ("sys_d.cfg", "sigma_slope = 3", "sigma_slope = 2.5",
     "system.sigma_slope"),
    ("sys_d.cfg", "sigma_slope = 3", "sigma_slope = 1", "system.sigma_slope"),
    ("sys_a.cfg", 'sigma = "inferred"', 'sigma = "given"', "system.sigma"),
    ("sys_a.cfg", "cells = 1024", "cells = 1000.7", "grid.cells"),
    ("sys_a.cfg", "cells = 1024", "cells = 1", "grid.cells"),
    ("sys_a.cfg", "cells = 1024", "cells = 1048577", "grid.cells"),
    ("sys_a.cfg", "cells = 1024", "cells = 100000000000", "grid.cells"),
    ("sys_a.cfg", "max_iter = 2000", "max_iter = 20.5", "solver.max_iter"),
    ("sys_a.cfg", "seed = 0", "seed = -1", "solver.seed"),
    ("sys_a.cfg", "seed = 7", "seed = -1", "sampler.seed"),
    ("sys_a.cfg", "seed = 7", "seed = 7.5", "sampler.seed"),
    ("sys_a.cfg", "paths = 100000", "paths = 99.9", "sampler.paths"),
    ("sys_a.cfg", "paths = 100000", "paths = 1000001", "sampler.paths"),
])
def test_bad_config_value_exit_code(capsys, tmp_path, base, old, new, field):
    # a value the run would truncate or cannot use is an input error
    # located at its field, never a silent truncation or a traceback
    text = load_config(fixture(base)).emit()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(["harmonic", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{field}'" in err


@pytest.mark.parametrize("base, old, new", [
    ("sys_b.cfg", "tol = 1e-12", "tol = inf"),
    ("sys_b.cfg", "tol = 1e-12", "tol = nan"),
    ("sys_a.cfg", "value = 1.0", "value = nan"),
    ("sys_a.cfg", "value = 1.0", "value = -inf"),
    ("sys_b.cfg", "constant_term = 1.0", "constant_term = nan"),
    ("sys_b.cfg", "cos = [1.0]", "cos = [nan]"),
    ("sys_b.cfg", "cos = [1.0]", "cos = [1.0, 1e999]"),
])
def test_non_finite_config_value_exit_code(capsys, tmp_path, base, old, new):
    # nan and infinity are located input errors, never a false PASS, a full
    # run of the solver or an unlocated numerical failure
    text = load_config(fixture(base)).emit()
    assert old in text
    text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["harmonic", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(new) + 1
    assert "config error: non-finite number" in err
    assert f"(line {line})" in err


@pytest.mark.parametrize("base, anchor, new", [
    # a key the selected weight or measure kind does not read
    ("sys_a.cfg", "value = 1.0", "cos = [0.9]"),
    ("sys_a.cfg", "value = 1.0", "constant_term = 2.0"),
    ("sys_b.cfg", "cos = [1.0]", "value = 2.0"),
    ("sys_b.cfg", "cos = [1.0]", "table_values = [1.0, 1.0]"),
    ("sys_a.cfg", 'kind = "lebesgue"', "positions = [0.5]"),
    ("sys_a.cfg", 'kind = "lebesgue"', "masses = [1.0]"),
    # a key given twice
    ("sys_a.cfg", "cells = 1024", "cells = 512"),
    ("sys_b.cfg", "cos = [1.0]", "cos = [0.5]"),
    # sigma inferred and given at once
    ("sys_d.cfg", "sigma_slope = 3", 'sigma = "inferred"'),
    ("sys_a.cfg", 'sigma = "inferred"', "sigma_slope = 2"),
])
def test_ignored_config_key_exit_code(capsys, tmp_path, base, anchor, new):
    # a key the run would silently drop is an input error at its line, and
    # no report is written
    text = load_config(fixture(base)).emit()
    assert text.count(anchor + "\n") == 1
    text = text.replace(anchor + "\n", f"{anchor}\n{new}\n")
    cfg, out = tmp_path / "bad.cfg", tmp_path / "report.json"
    cfg.write_text(text)
    assert main(["harmonic", "--config", str(cfg), "--json", str(out)]) == 2
    err = capsys.readouterr().err
    line = text.splitlines().index(new) + 1
    assert "config error" in err and f"(line {line})" in err
    assert not out.exists()


def test_unknown_weight_kind_keeps_its_error(capsys, tmp_path):
    # with no kind to read keys for, the kind itself is the error
    text = load_config(SYS_A).emit().replace('kind = "constant"',
                                             'kind = "ramp"')
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["harmonic", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown weight kind 'ramp'" in err and "field 'weight.kind'" in err


# Each subcommand with the flags it requires.
_EVERY_COMMAND = (
    ["verify"], ["harmonic"], ["measure"], ["defect"],
    ["cylinder", "--x", "0.3", "--sets", "[0,0.5)"], ["sample"], ["quasi"],
    ["markov", "--x", "0.3", "--set-a", "[0,0.25)", "--set-b", "[0,0.5)"],
    ["harmonic-from-measure"],
)


@pytest.mark.parametrize("positions, masses", [
    ("[0.0]", "[-0.5]"), ("[0.0]", "[0.0]"), ("[]", "[]")])
@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_bad_atom_masses_exit_code(capsys, tmp_path, argv, positions,
                                   masses):
    # a negative atom mass, or atoms with no mass at all, is an input error
    # at the masses before any subcommand runs: never a traceback, a PASS
    # on a measure of mass 0 or a late numerical failure
    assert {command[0] for command in _EVERY_COMMAND} == set(
        towb.cli._COMMANDS)
    text = load_config(SYS_C).emit()
    for old, new in (("positions = [0.0]", f"positions = {positions}"),
                     ("masses = [1.0]", f"masses = {masses}")):
        assert old in text
        text = text.replace(old, new)
    cfg, out = tmp_path / "bad.cfg", tmp_path / "report.json"
    cfg.write_text(text)
    assert main([*argv, "--config", str(cfg), "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "field 'measure.masses'" in err
    assert not out.exists()


def test_negative_seed_flag_exit_code(capsys):
    assert main(["harmonic", "--config", SYS_A, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "field 'seed'" in err


def test_seed_flag_only_where_something_is_drawn(capsys):
    # measure draws nothing, so argparse refuses its --seed; the other
    # eight commands take it
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--config", SYS_A, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    required = {"cylinder": ["--x", "0.3", "--sets", "[0,0.5)"],
                "markov": ["--x", "0.3", "--set-a", "[0,0.5)",
                           "--set-b", "[0,0.5)"]}
    others = [name for name in _COMMANDS if name != "measure"]
    assert len(others) == 8
    for name in others:
        args = build_parser().parse_args(
            [name, "--config", SYS_A, "--seed", "1", *required.get(name, [])])
        assert args.seed == 1


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

    def test_exact_queries_build_no_node_kernel(self, capsys, monkeypatch):
        # an exact solve's certificate is the path measure's trust gate, so
        # no exact query builds the kernel at the nodes; verify, which
        # applies R at the nodes, shows that the guard can see one
        made = []

        class Recording(towb.TransferOperator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(towb.cli, "TransferOperator", Recording)
        for cfg in (SYS_A, SYS_B, SYS_C, SYS_D):
            for argv in (["cylinder", "--x", "0.3", "--sets",
                          "[0,0.25);all;[0.5,0.75)"],
                         ["markov", "--x", "0.3", "--set-a", "[0,0.25)",
                          "--set-b", "[0,0.5)", "--n", "3"],
                         ["harmonic-from-measure"]):
                assert main(argv + ["--config", cfg]) == 0
        assert len(made) == 12
        assert not any("node_kernel" in op.__dict__ for op in made)
        assert main(["verify", "--config", SYS_A, "--trials", "5"]) == 0
        assert "node_kernel" in made[-1].__dict__

    def test_verify_sys_a_all_pass(self, capsys):
        assert main(["verify", "--config", SYS_A, "--trials", "5"]) == 0

    @pytest.mark.parametrize("command", ["verify", "quasi"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, capsys, command, trials):
        # with no test function drawn every check would pass vacuously
        assert main([command, "--config", SYS_A, "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "field 'trials'" in err

    @pytest.mark.parametrize("argv, flag", [
        (["markov", "--n", "1"], "n"),
        (["markov", "--n", "16"], "n"),
        (["harmonic-from-measure", "--depth", "0"], "depth"),
        (["harmonic-from-measure", "--depth", "16"], "depth"),
        (["measure", "--steps", "-1"], "steps"),
        (["sample", "--battery", "0"], "battery"),
        (["sample", "--battery", "-3"], "battery"),
        (["sample", "--battery", "101"], "battery"),
        (["verify", "--trials", "1001"], "trials"),
        (["quasi", "--trials", "1001"], "trials"),
        (["harmonic", "--k-max", "-1"], "k-max"),
        (["harmonic", "--n-max", "-1"], "n-max"),
        (["harmonic", "--n-max", "10001"], "n-max"),
        (["harmonic", "--n-max", "10000000000"], "n-max"),
        (["harmonic", "--cascade-tol", "nan"], "cascade-tol"),
        (["harmonic", "--cascade-tol", "-1"], "cascade-tol"),
        (["harmonic", "--cascade-tol", "0"], "cascade-tol"),
        (["harmonic", "--cascade-tol", "inf"], "cascade-tol"),
        (["cylinder", "--x", "nan", "--sets", "[0,0.5)"], "x"),
        (["cylinder", "--x", "inf", "--sets", "[0,0.5)"], "x"),
        (["markov", "--x", "nan"], "x"),
        (["sample", "--x=-inf"], "x"),
        # a base off [0, 1) is the same circle point as its reduction, but
        # the branches would act on it unreduced
        (["cylinder", "--x", "1.5", "--sets", "[0,0.5)"], "x"),
        (["cylinder", "--x=-0.5", "--sets", "[0,0.5)"], "x"),
        (["markov", "--x", "1.0"], "x"),
        (["sample", "--x", "1e308"], "x"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_flag_out_of_bounds_exit_code(self, capsys, tmp_path, argv,
                                          flag):
        # a flag value outside its bound is an input error located at the
        # flag: never a numerical failure, a traceback or a vacuous check
        if argv[0] == "markov":
            argv = argv + ["--set-a", "[0,0.25)", "--set-b", "[0,0.5)"]
            if "--x" not in argv:
                argv += ["--x", "0.3"]
        out = tmp_path / "report.json"
        assert main(argv + ["--config", SYS_A, "--json", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"field '{flag}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["measure", "--steps", "0"],
        ["measure", "--steps", "16"],   # a measure with no atoms has no limit
        ["harmonic", "--k-max", "0", "--n-max", "0"],
        ["markov", "--x", "0.3", "--set-a", "[0,0.25)", "--set-b", "[0,0.5)",
         "--n", "2"],
        ["markov", "--x", "0.3", "--set-a", "[0,0.25)", "--set-b", "[0,0.5)",
         "--n", "15"],
        ["cylinder", "--x", "0.0", "--sets", "[0,0.5)"],
        ["cylinder", "--x", "0.9999999999999999", "--sets", "[0,0.5)"],
    ], ids=" ".join)
    def test_flag_bounds_admit_their_limits(self, capsys, argv):
        assert main(argv + ["--config", SYS_A]) == 0

    @pytest.mark.parametrize("argv, paths, over_argv, over_paths", [
        (["verify", "--trials", "1000"], 100_000,
         ["verify", "--trials", "1001"], 100_000),
        (["quasi", "--trials", "1000"], 100_000,
         ["quasi", "--trials", "1001"], 100_000),
        (["sample", "--battery", "100"], 1000,
         ["sample", "--battery", "101"], 1000),
        (["sample", "--battery", "1"], 1_000_000,
         ["sample", "--battery", "1"], 1_000_001),
        (["harmonic", "--n-max", "10000"], 100_000,
         ["harmonic", "--n-max", "10001"], 100_000),
        # the highest k-max for sys_b's weight, of three terms and degree 1
        (["harmonic", "--k-max", "15"], 100_000,
         ["harmonic", "--k-max", "16"], 100_000),
    ], ids=["verify trials", "quasi trials", "sample battery",
            "sampler paths", "harmonic n-max", "harmonic k-max"])
    def test_count_bounds_keep_their_budget(self, capsys, tmp_path, argv,
                                            paths, over_argv, over_paths):
        # a count at its highest value peaks below the 16 MiB of traced
        # allocation that its table states; one above it is refused before
        # the run allocates anything
        def traced(argv, paths):
            cfg = tmp_path / f"paths_{paths}.cfg"
            cfg.write_text(load_config(SYS_B).emit().replace(
                "paths = 100000", f"paths = {paths}"))
            tracemalloc.start()
            try:
                code = main(argv + ["--config", str(cfg)])
                return code, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        code, peak = traced(argv, paths)
        assert code == 0 and peak < 16 * 2**20
        code, peak = traced(over_argv, over_paths)
        assert code == 2 and peak < 2**20

    @pytest.mark.parametrize("slopes, cos, k_max, code", [
        # slopes 1/3 and 2/3: the cascade is SKIPPED, so nothing is charged
        ([1 / 3, 2 / 3], 100, 4, 0),
        # the doubling map: k-max 0 multiplies by no W_k, k-max 1 does
        ([0.5, 0.5], 300, 0, 0),
        ([0.5, 0.5], 300, 1, 2),
    ])
    def test_cascade_budget_charges_only_the_exact_cascade(
            self, capsys, tmp_path, slopes, cos, k_max, code):
        text = load_config(SYS_B).emit()
        for old, new in (
                ("cos = [1.0]", f"cos = {[0.5 / cos] * cos}"),
                ("branch_slopes = [0.5, 0.5]", f"branch_slopes = {slopes}"),
                ("branch_offsets = [0.0, 0.5]",
                 f"branch_offsets = {[0.0, slopes[0]]}"),
                ("probabilities = [0.5, 0.5]",
                 f"probabilities = {slopes}")):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "weight.cfg"
        cfg.write_text(text)
        assert main(["harmonic", "--config", str(cfg),
                     "--k-max", str(k_max)]) == code
        if code == 2:
            assert "field 'k-max'" in capsys.readouterr().err

    @pytest.mark.parametrize("config, depth", [
        ("three_branch", 12), ("sys_a", DEPTH_MAX)])
    @pytest.mark.parametrize("flag", ["n", "sets"])
    def test_path_depth_budget(self, capsys, tmp_path, config, depth, flag):
        # a path of depth coordinates after x_0 exits 0 and one more is
        # refused, located at the flag, before the solve: 3^13 words at one
        # base exceed WORDS_MAX on three branches, and sys_a's limit is the
        # enumeration's DEPTH_MAX
        path = SYS_A
        if config == "three_branch":
            path = tmp_path / "three.cfg"
            path.write_text(
                "[system]\nbranch_slopes = [0.3333333333333333, "
                "0.3333333333333333, 0.3333333333333333]\n"
                "branch_offsets = [0.0, 0.3333333333333333, "
                "0.6666666666666666]\nprobabilities = [0.2, 0.3, 0.5]\n"
                "sigma = \"inferred\"\n\n[grid]\ncells = 243\n")
        for d, code in ((depth, 0), (depth + 1, 2)):
            if flag == "n":   # markov's deeper mass has n + 1 coordinates
                argv = ["markov", "--set-a", "[0,0.25)", "--set-b",
                        "[0,0.5)", "--n", str(d - 1)]
            else:
                argv = ["cylinder", "--sets", ";".join(["[0,0.5)"] * d)]
            assert main(argv + ["--config", str(path), "--x", "0.3"]) == code
        assert f"field '{flag}'" in capsys.readouterr().err

    def test_steps_bound_counts_the_atoms(self, capsys):
        # sys_c's one atom doubles each step: 15 steps hold 2^15 atoms and
        # peak below 16 MiB; 16 is refused, located at the flag, before
        # the run allocates anything
        for steps, code, budget in ((15, 0, 16 * 2**20), (16, 2, 2**20)):
            tracemalloc.start()
            try:
                assert main(["measure", "--config", SYS_C,
                             "--steps", str(steps)]) == code
                assert tracemalloc.get_traced_memory()[1] < budget
            finally:
                tracemalloc.stop()
        assert "field 'steps'" in capsys.readouterr().err

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
        import towb.grid

        calls = []
        original = towb.grid.pushforward

        def counting(mu, branch):
            calls.append(mu.n_cells)
            return original(mu, branch)

        monkeypatch.setattr(towb.grid, "pushforward", counting)
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

    def test_measure_mass_check_fails_on_leaking_pushforward(
            self, capsys, tmp_path, monkeypatch):
        # negative control: a pushforward that loses one part in 1e9 of
        # its mass must turn the mass_preserved check into a FAIL
        import towb.grid

        def mass_check(code, out):
            (check,) = json.loads(out.read_text())["checks"]
            assert check["name"] == "mass_preserved"
            return code, check["status"]

        out = tmp_path / "rep.json"
        argv = ["measure", "--config", SYS_D, "--json", str(out)]
        assert mass_check(main(argv), out) == (0, "PASS")
        original = towb.grid.pushforward
        monkeypatch.setattr(towb.grid, "pushforward",
                            lambda mu, br: original(mu, br).scaled(1 - 1e-9))
        assert mass_check(main(argv), out) == (1, "FAIL")

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

    def test_harmonic_unconverged_cascade_skip_reason(self, capsys,
                                                      tmp_path):
        # two power steps leave the solve on the doubling map unconverged,
        # and the cascade is skipped for that reason
        cfg = power_config(tmp_path, "slow.cfg",
                           ("max_iter = 2000", "max_iter = 2"))
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", cfg, "--json",
                     str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [(c["name"], c["status"], c.get("note")) for c in checks] == [
            ("harmonic_converged", "FAIL", None),
            ("fourier_cascade", "SKIPPED", "harmonic solve did not converge")]

    @pytest.mark.parametrize("probs, cascade", [
        ("[0.5, 0.5]", ("PASS", None)),
        ("[0.25, 0.75]", ("SKIPPED",
                          "grid too coarse for the requested frequencies"))])
    def test_harmonic_cascade_on_a_coarse_grid(self, capsys, tmp_path, probs,
                                               cascade):
        # at 512 cells the default frequencies (2^4 * 8 = 128) are past the
        # midpoint rule's N/4: an exact h reads its coefficients with no
        # grid bound, and a power-iterated one reports the cascade SKIPPED
        # with the solve's results kept
        text = load_config(SYS_B).emit()
        text = text.replace("cells = 1024", "cells = 512").replace(
            "probabilities = [0.5, 0.5]", f"probabilities = {probs}")
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(text)
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", str(cfg), "--json",
                     str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {"rho", "residual", "iterations"} <= set(payload["results"])
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["harmonic_converged"]["status"] == "PASS"
        assert (checks["fourier_cascade"]["status"],
                checks["fourier_cascade"].get("note")) == cascade

    @pytest.mark.parametrize("old, new, rho, cascade", [
        ('kind = "trig"\nconstant_term = 1.0\ncos = [1.0]',
         'kind = "constant"\nvalue = 2.0', 2.0, ("PASS", None)),
        ("constant_term = 1.0\ncos = [1.0]",
         "constant_term = 1e-20\ncos = [1e-20]", 1e-20, ("PASS", None)),
        ("probabilities = [0.5, 0.5]", "probabilities = [0.25, 0.75]", None,
         ("SKIPPED", "cascade identity needs equal probabilities, "
                     "got [0.25, 0.75]"))])
    def test_harmonic_cascade_off_rho_one(self, capsys, tmp_path, old, new,
                                          rho, cascade):
        # constant weight 2 and 1e-20 (1 + cos 2 pi x), all of whose
        # coefficients are below 1e-15, solve exactly and compare
        # (W_k h)^ / rho^k with h^; unequal probabilities, where the
        # identity does not hold, skip it
        text = load_config(SYS_B).emit()
        assert old in text
        cfg = tmp_path / "cascade.cfg"
        cfg.write_text(text.replace(old, new))
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", str(cfg), "--json",
                     str(out)]) == 0
        payload = json.loads(out.read_text())
        if rho is not None:
            assert payload["results"]["rho"] == rho
        checks = {c["name"]: c for c in payload["checks"]}
        assert (checks["fourier_cascade"]["status"],
                checks["fourier_cascade"].get("note")) == cascade

    @pytest.mark.parametrize("old, new", [
        (None, None),
        ('kind = "trig"\nconstant_term = 1.0\ncos = [1.0]',
         'kind = "constant"\nvalue = 2.0'),
        ("constant_term = 1.0\ncos = [1.0]",
         "constant_term = 1e-20\ncos = [1e-20]")])
    def test_path_commands_refuse_rho_off_one(self, capsys, tmp_path, old,
                                              new):
        # h with R h = rho h, rho = 2 or 1e-20, is no harmonic function: a
        # path-space command names rho and the rescaling that mends it,
        # and sys_b itself (rho = 1) still runs
        text = load_config(SYS_B).emit()
        if old is not None:
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "rho.cfg"
        cfg.write_text(text)
        code = main(["cylinder", "--config", str(cfg), "--x", "0.3",
                     "--sets", "[0,0.5)"])
        err = capsys.readouterr().err
        if old is None:
            assert code == 0 and err == ""
        else:
            assert code == 3
            assert "rho = " in err and "normalize_weight" in err

    @pytest.mark.parametrize("path, method, ratio", [
        (SYS_B, "transition_matrix", 0.5), (SYS_D, "transition_matrix", 0.0),
        (None, "power", None)])
    def test_harmonic_reports_the_solve_method(self, capsys, tmp_path, path,
                                               method, ratio):
        # None: sys_b with unequal probabilities, which has no invariant
        # trig space
        path = path or power_config(tmp_path, "unequal.cfg")
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", path, "--json", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["method"] == method
        assert results.get("spectral_ratio") == ratio
        assert (results["iterations"] == 0) == (method == "transition_matrix")

    @pytest.mark.parametrize("cos, code, ratio", [
        ("[0.0, 0.0, 1.0]", 3, None), ("[0.0, 0.0, 0.99]", 0, 0.99333)])
    def test_harmonic_peripheral_spectrum(self, capsys, tmp_path, cos, code,
                                          ratio):
        # Lawton's W = 1 + cos 6 pi x leaves h undetermined (exit 3 with the
        # spectrum); at 0.99 the second eigenvalue is off the circle and h
        # is solved exactly, where power iteration would need ~3,800 steps
        text = load_config(SYS_B).emit().replace("cos = [1.0]", f"cos = {cos}")
        cfg = tmp_path / "lawton.cfg"
        cfg.write_text(text)
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", str(cfg), "--json",
                     str(out)]) == code
        if ratio is None:
            assert ("numerical failure: leading eigenvalue 1 has multiplicity "
                    "2; peripheral spectrum {1, 1, -1}"
                    in capsys.readouterr().err)
            assert not out.exists()
        else:
            results = json.loads(out.read_text())["results"]
            assert results["rho"] == pytest.approx(1.0, abs=1e-14)
            assert results["spectral_ratio"] == pytest.approx(ratio, abs=1e-5)

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

    @pytest.mark.parametrize("flag", ["--sets", "--set-a", "--set-b"])
    @pytest.mark.parametrize("text", ["[a,0.5)", "[0,0.5,0.7)", "[0.5,0.2)",
                                      "[0,0.5", ";", "[0,2)", "[-0.5,0.5)"])
    def test_malformed_sets_exit_code(self, capsys, flag, text):
        # a non-numeric endpoint, three endpoints, a reversed interval, a
        # missing bracket, a spec with no coordinate and an endpoint outside
        # [0, 1] are input errors located at the flag that carried them
        if flag == "--sets":
            argv = ["cylinder", "--sets", text]
        else:
            sets = {"--set-a": "[0,0.25)", "--set-b": "[0,0.5)", flag: text}
            argv = ["markov", "--set-a", sets["--set-a"],
                    "--set-b", sets["--set-b"]]
        assert main(argv + ["--config", SYS_A, "--x", "0.3"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"field '{flag[2:]}'" in err

    @pytest.mark.parametrize("argv, flag", [
        (["cylinder"], "--sets"),
        (["markov", "--set-b", "[0,0.5)"], "--set-a"),
        (["markov", "--set-a", "[0,0.25)"], "--set-b"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_missing_sets_exit_code(self, capsys, argv, flag):
        # the set flags are required: argparse names the missing one
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", SYS_A, "--x", "0.3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"the following arguments are required: {flag}" in err

    @pytest.mark.parametrize("flag", ["--set-a", "--set-b"])
    def test_markov_extra_coordinate_exit_code(self, capsys, flag):
        # markov compares two sets of one coordinate each, each one interval
        # union: a second coordinate, an unconstrained one and a trailing
        # ';' are input errors, not silently dropped or read as a set,
        # located at the flag
        for text in ("[0,0.25);[0.5,0.75)", "all", "[0,0.25);"):
            sets = {"--set-a": "[0,0.25)", "--set-b": "[0,0.5)", flag: text}
            assert main(["markov", "--config", SYS_A, "--x", "0.3", "--n",
                         "3", "--set-a", sets["--set-a"],
                         "--set-b", sets["--set-b"]]) == 2, text
            err = capsys.readouterr().err
            assert "config error" in err and f"field '{flag[2:]}'" in err

    def test_sampler_depth_key_exit_code(self, capsys, tmp_path):
        # the sampler draws its own depths; a config asking for one is
        # refused at its line, like any other key the format lacks
        cfg = tmp_path / "depth.cfg"
        cfg.write_text(load_config(SYS_A).emit().replace(
            "paths = 100000\n", "paths = 100000\ndepth = 3\n"))
        assert main(["sample", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'depth' in section '[sampler]'" in err
        assert "line 22" in err

    @pytest.mark.parametrize("command", ["measure", "defect", "verify"])
    def test_branch_image_off_the_circle_exit_code(self, capsys, tmp_path,
                                                   command):
        # x/2 - 1/4 does not wrap, and half its image lies below 0: the
        # measure layer would drop that mass, so the system is refused
        cfg = tmp_path / "shifted.cfg"
        cfg.write_text(load_config(SYS_A).emit().replace(
            "branch_offsets = [0.0, 0.5]", "branch_offsets = [-0.25, 0.25]"))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "branches[0]: image [-0.25, 0.25]" in err
        assert "field 'system'" in err

    def test_missing_file_exit_code(self, capsys):
        assert main(["harmonic", "--config", "/nonexistent.cfg"]) == 2

    def test_check_failure_exit_code(self, capsys, tmp_path):
        # an impossible solver tolerance leaves the power iteration
        # unconverged, failing the harmonic check
        cfg = power_config(tmp_path, "stall.cfg",
                           ("tol = 1e-12", "tol = 1e-16"),
                           ("max_iter = 2000", "max_iter = 2"))
        assert main(["harmonic", "--config", cfg]) == 1

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
        # path-space commands need a converged fixed function; an
        # unconverged solve is a numerical failure, not a check failure
        cfg = power_config(tmp_path, "stall.cfg",
                           ("tol = 1e-12", "tol = 1e-16"),
                           ("max_iter = 2000", "max_iter = 2"))
        code = main(["cylinder", "--config", cfg, "--x", "0.3",
                     "--sets", "[0,0.25)"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_exact_solve_below_its_residual_fails(self, capsys, tmp_path):
        # the transition-matrix solve keeps the solver tol: a non-QMF
        # weight's eigenpair has a rounding residual above 1e-18, so the
        # harmonic check fails and a path-space command refuses the h
        text = load_config(SYS_B).emit()
        for old, new in (("cos = [1.0]", "cos = [0.4, 0.2]\nsin = [0.1]"),
                         ("tol = 1e-12", "tol = 1e-18")):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "non_qmf.cfg"
        cfg.write_text(text)
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", str(cfg), "--json",
                     str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["results"]["method"] == "transition_matrix"
        (check,) = [c for c in payload["checks"]
                    if c["name"] == "harmonic_converged"]
        assert check["status"] == "FAIL" and check["residual"] >= 1e-18
        assert main(["cylinder", "--config", str(cfg), "--x", "0.3",
                     "--sets", "[0,0.25)"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_word_bound_exit_code(self, capsys):
        # the rebuild's two sums enumerate 3 * 2^depth * 1024 words on the
        # 1024-cell fixture: depth 13 is within the budget of 2^25, and
        # depth 14 is refused, located at the flag, before the solve
        assert main(["harmonic-from-measure", "--config", SYS_A,
                     "--depth", "13"]) == 0
        assert main(["harmonic-from-measure", "--config", SYS_A,
                     "--depth", "14"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "field 'depth'" in err

    def test_rebuild_sums_past_the_word_bound(self, capsys, tmp_path):
        # 262145 cells, the smallest grid whose default rebuild sums more
        # than WORDS_MAX words over its bases, passes: the enumeration
        # takes the bases in chunks
        cfg = tmp_path / "fine.cfg"
        cfg.write_text(load_config(SYS_A).emit().replace(
            "cells = 1024", "cells = 262145"))
        out = tmp_path / "rep.json"
        assert main(["harmonic-from-measure", "--config", str(cfg),
                     "--json", str(out)]) == 0
        assert self._statuses(out, ["harmonic_reconstruction"]) == ["PASS"]

    def test_verify_unconverged_solve_exit_code(self, capsys, tmp_path):
        # the identity suite needs a converged fixed function, like the
        # path-space commands
        cfg = power_config(tmp_path, "one_step.cfg",
                           ("max_iter = 2000", "max_iter = 1"))
        assert main(["verify", "--config", cfg, "--trials", "5"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_parser_reused_across_calls(self, capsys, tmp_path):
        # one parser serves every main() call of a process; calls with
        # other subcommands and a rejected argument in between leave the
        # reports as a freshly built parser gives them
        from towb.cli import build_parser

        runs = [["measure", "--config", SYS_D, "--steps", "3"],
                ["defect", "--config", SYS_A],
                ["measure", "--config", SYS_D, "--steps", "x"],
                ["cylinder", "--config", SYS_A, "--x", "0.3",
                 "--sets", "[0,0.25)"],
                ["measure", "--config", SYS_D]]

        def outcomes(fresh: bool) -> list:
            got = []
            for i, argv in enumerate(runs):
                if fresh:
                    build_parser.cache_clear()
                out = tmp_path / f"{fresh}-{i}.json"
                try:
                    code = main(argv + ["--json", str(out)])
                except SystemExit as exc:
                    code = exc.code
                got.append((code, out.read_bytes() if out.exists() else None))
            return got

        shared = outcomes(fresh=False)
        assert build_parser() is build_parser()
        assert [code for code, _ in shared] == [0, 0, 2, 0, 0]
        assert shared == outcomes(fresh=True)

    @staticmethod
    def _statuses(out, names) -> list:
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        return [checks[name]["status"] for name in names]

    def test_quasi_checks_fail_on_point_mass(self, capsys, tmp_path):
        # negative control: sys_c differs from sys_a only in lam, the point
        # mass at 0, whose pushed measure has no density W against it
        names = ["quasi_invariance", "unitarity", "multiresolution"]
        out = tmp_path / "rep.json"
        for path, code, status in ((SYS_A, 0, "PASS"), (SYS_C, 1, "FAIL")):
            assert main(["quasi", "--config", path, "--trials", "3",
                         "--json", str(out)]) == code
            assert self._statuses(out, names) == [status] * 3

    @pytest.mark.parametrize("trials", [1, 3])
    def test_quasi_trial_batch_edges(self, capsys, tmp_path, monkeypatch,
                                     trials):
        # one trial makes a one-trial (1, F) batch; three trials on these
        # seeds leave a depth group with one trial.  Both still PASS on
        # sys_a and FAIL every check on the point mass of sys_c
        import towb.cli

        sizes = []
        original = towb.cli.batch_trials

        def record(draws):
            for psi in original(draws):
                sizes.append(psi.components[0].coefs.shape[0])
                yield psi

        monkeypatch.setattr(towb.cli, "batch_trials", record)
        names = ["quasi_invariance", "unitarity", "multiresolution"]
        out = tmp_path / "rep.json"
        for path, code, status in ((SYS_A, 0, "PASS"), (SYS_C, 1, "FAIL")):
            sizes.clear()
            assert main(["quasi", "--config", path, "--trials", str(trials),
                         "--json", str(out)]) == code
            assert self._statuses(out, names) == [status] * 3
            assert sum(sizes) == trials and 1 in sizes

    def test_quasi_sums_past_the_word_bound(self, capsys, tmp_path,
                                            monkeypatch):
        # with WORDS_MAX at 2^10 no expectation over the 1024 midpoints of
        # sys_b fits one enumeration; the shift checks go through in chunks
        # of bases and report what the unchunked run reports
        import towb.solenoid

        names = ["quasi_invariance", "unitarity", "multiresolution"]
        reports = []
        for words_max in (towb.solenoid.WORDS_MAX, 2**10):
            monkeypatch.setattr(towb.solenoid, "WORDS_MAX", words_max)
            out = tmp_path / f"rep_{words_max}.json"
            assert main(["quasi", "--config", SYS_B, "--json", str(out)]) == 0
            assert self._statuses(out, names) == ["PASS"] * 3
            reports.append(json.loads(out.read_text())["results"])
        assert reports[0].keys() == reports[1].keys()
        for key, value in reports[0].items():
            assert abs(reports[1][key] - value) <= 1e-15

    @pytest.mark.parametrize("base, fails", [("sys_a.cfg", 0),
                                             ("sys_b.cfg", 10)])
    def test_sample_specs_fail_on_wrong_weight(self, capsys, tmp_path,
                                               monkeypatch, base, fails):
        # negative control: the sampler draws from the kernel of W = 1
        # while the exact masses keep the system's weight; on sys_b half
        # of the battery flips to FAIL, on sys_a (W = 1) nothing changes
        import dataclasses

        import towb.solenoid

        original = towb.solenoid._conditioned_kernel

        def unit_weight(pm, *args):
            system = pm.op.system.with_weight(towb.WeightExpr.constant(1.0))
            op = towb.TransferOperator(system, pm.op.n_grid)
            return original(dataclasses.replace(pm, op=op), *args)

        path = fixture(base)
        out = tmp_path / "rep.json"
        assert main(["sample", "--config", path, "--json", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["agreeing"] == 20 and results["worst_z"] < 4.0
        monkeypatch.setattr(towb.solenoid, "_conditioned_kernel",
                            unit_weight)
        code = main(["sample", "--config", path, "--json", str(out)])
        payload = json.loads(out.read_text())
        statuses = [c["status"] for c in payload["checks"]]
        assert statuses.count("FAIL") == fails
        assert payload["results"]["agreeing"] == 20 - fails
        assert (payload["results"]["worst_z"] > 4.0) == bool(fails)
        assert code == (1 if fails else 0)

    def test_sample_worst_z_is_deterministic(self, capsys, tmp_path):
        # the largest |p_hat - p_exact| / stderr over the battery, the same
        # on every run with the config's sampler seed
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["sample", "--config", SYS_B, "--battery", "4",
                         "--json", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        worst_z = json.loads(a.read_text())["results"]["worst_z"]
        checks = json.loads(a.read_text())["checks"]
        assert worst_z == pytest.approx(
            max(4.0 * c["residual"] / c["tol"] for c in checks), rel=1e-12)

    @staticmethod
    def _perturb_solution(monkeypatch, eps):
        """Make the CLI's harmonic solve return ``h (1 + eps cos 4 pi x)``
        for an exact (trig polynomial) ``h``."""
        import dataclasses

        import towb.cli

        original = towb.cli.solve_harmonic

        def perturbed(op, lam, **kwargs):
            sol = original(op, lam, **kwargs)
            bump = towb.TrigPoly.from_cos_sin(1.0, [0.0, eps])
            return dataclasses.replace(sol, h=sol.h * bump)

        monkeypatch.setattr(towb.cli, "solve_harmonic", perturbed)

    def test_harmonic_reconstruction_fails_on_perturbed_h(
            self, capsys, tmp_path, monkeypatch):
        # negative control: on sys_a, R maps cos 4 pi x to cos 2 pi x and
        # that to 0, so h (1 + 1e-7 cos 4 pi x) passes the 1e-6 trust
        # residual, while R h~ and R^2 h~ differ by 1e-7 cos 2 pi x
        argv = ["harmonic-from-measure", "--config", SYS_A]
        out = tmp_path / "rep.json"
        assert main(argv + ["--json", str(out)]) == 0
        assert self._statuses(out, ["harmonic_reconstruction"]) == ["PASS"]
        self._perturb_solution(monkeypatch, 1e-7)
        assert main(argv + ["--json", str(out)]) == 1
        assert self._statuses(out, ["harmonic_reconstruction"]) == ["FAIL"]
        (check,) = json.loads(out.read_text())["checks"]
        assert check["residual"] == pytest.approx(1e-7, rel=1e-3)

    def test_fourier_cascade_fails_on_perturbed_h(self, capsys, tmp_path,
                                                  monkeypatch):
        # negative control: the same bump at 1e-3 on sys_b moves the
        # coefficients of h off the cascade of the weight, while the solve
        # itself still reports convergence
        argv = ["harmonic", "--config", SYS_B]
        out = tmp_path / "rep.json"
        assert main(argv + ["--json", str(out)]) == 0
        assert self._statuses(out, ["fourier_cascade"]) == ["PASS"]
        self._perturb_solution(monkeypatch, 1e-3)
        assert main(argv + ["--json", str(out)]) == 1
        assert self._statuses(out, ["harmonic_converged",
                                    "fourier_cascade"]) == ["PASS", "FAIL"]

    def test_report_digest_value_lines(self, capsys, tmp_path):
        # the digest's --values lines carry each check's status and
        # residual and each result, floats in full
        import importlib.util

        path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                            "report_digest.py")
        spec = importlib.util.spec_from_file_location("report_digest", path)
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        out = tmp_path / "rep.json"
        assert main(["harmonic", "--config", SYS_D, "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        lines = digest.value_lines(report)
        rho = report["results"]["rho"]
        assert f"    result rho {rho!r}" in lines
        assert ("    check fourier_cascade SKIPPED "
                "[system is not the doubling map]") in lines
        (converged,) = [c for c in report["checks"]
                        if c["name"] == "harmonic_converged"]
        assert (f"    check harmonic_converged PASS residual "
                f"{converged['residual']!r}") in lines
        assert len(lines) == len(report["checks"]) + len(report["results"])

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

    @pytest.mark.parametrize("argv", [
        ["cylinder", "--x", "0.3", "--sets", "[0,0.5)"],
        ["quasi"],
        ["markov", "--x", "0.3", "--set-a", "[0,0.25)", "--set-b", "[0,0.5)"],
    ])
    def test_plot_data_refused_where_nothing_is_plotted(self, capsys,
                                                        tmp_path, argv):
        # these handlers write no plot data, so the flag is not offered
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", SYS_A,
                  "--plot-data", str(tmp_path / "plots")])
        assert exc.value.code == 2
        assert "--plot-data" in capsys.readouterr().err
        assert not (tmp_path / "plots").exists()

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
