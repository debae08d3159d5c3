import argparse
import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spincat
import spincat.cli
from spincat.cli import build_parser, main
from spincat.scenarios import ScenarioConfig, coherence_scaling, config_to_dict, paper_config


def test_oat_command_writes_tables(tmp_path, capsys):
    rc = main(["oat", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak N_eff = 7.0000" in out
    table = tmp_path / "oat_neff.csv"
    assert table.exists()
    manifest = json.loads((tmp_path / "oat_manifest.json").read_text())
    assert manifest["tool"] == "spincat"
    assert manifest["config"]["fields"]["gamma_b0_hz"] == 8.25e6
    assert manifest["wall_time_s"] > 0
    data = np.array(
        [
            [float(x) for x in line.split(",")]
            for line in table.read_text().splitlines()
            if not line.startswith("#")
        ]
    )
    assert abs(data[:, 1].max() - 7.0) < 0.01


def test_virtual_phase_command(capsys):
    rc = main(["virtual-phase"])
    assert rc == 0
    assert "fidelity vs free-evolution cat = 1.0" in capsys.readouterr().out


def test_virtual_phase_waits_the_cat_time_whatever_the_sign_of_the_twist(tmp_path, capsys):
    # a principal axis at mu = pi/2, past the magic angle, twists with
    # omega_eff = -omega_q / 2; the default wait is still the cat time
    # pi / (2 |omega_eff|) > 0, so every increment is minus the aligned one
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps({"quadrupole": {"euler_rad": [0, np.pi / 2, 0]}}))
    assert main(["virtual-phase"]) == 0
    assert main(["virtual-phase", "--config", str(path)]) == 0
    aligned, tilted = (
        line.split("phase increments (rad) = ")[1].strip("[]").split(", ")
        for line in capsys.readouterr().out.splitlines()
    )
    assert [float(x) for x in tilted] == [-float(x) for x in aligned]
    assert "0.0" in tilted and "-0.0" not in tilted


def test_givens_command(capsys):
    rc = main(["givens", "--mode", "collapse"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "14 pulses" in out
    assert "8.125 ms" in out


def test_config_file_round_trip(tmp_path, capsys):
    config = {
        "spin": {"twice_i": 5},
        "fields": {"gamma_b0_hz": 8.25e6, "gamma_b1_hz": 800.0, "drive_axis": "y"},
        "quadrupole": {"omega_q_hz": 40e3, "eta": 0.0, "euler_rad": [0, 0, 0]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = main(["oat", "--config", str(path)])
    assert rc == 0
    assert "peak N_eff = 5.0000" in capsys.readouterr().out


def test_invalid_config_is_a_diagnostic_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"frame": "heliocentric"}))
    rc = main(["oat", "--config", str(path)])
    assert rc == 2
    assert "unknown config key 'frame'" in capsys.readouterr().err


def test_frame_flag_is_not_accepted(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ramsey", "--frame", "lab"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --frame lab" in capsys.readouterr().err


def test_husimi_command(tmp_path, capsys):
    rc = main(["husimi", "--time-fraction", "0.5", "--n-theta", "61",
               "--n-phi", "121", "--out", str(tmp_path)])
    assert rc == 0
    assert "sphere integral" in capsys.readouterr().out
    assert (tmp_path / "husimi_f0.5.csv").exists()


def test_lab_check_rejects_nan_dt(capsys):
    rc = main(["lab-check", "--dt", "nan"])
    assert rc == 2
    assert capsys.readouterr().err == "spincat: error: --dt must be a finite number, got nan\n"


def test_husimi_without_twisting_is_a_diagnostic_exit(tmp_path, capsys):
    # at 2I = 1 the Iz^2 term is a constant: there is no twisting to plot
    path = tmp_path / "spin_half.json"
    path.write_text(json.dumps({"spin": {"twice_i": 1}}))
    rc = main(["husimi", "--config", str(path)])
    assert rc == 2
    assert "effective twisting strength is zero" in capsys.readouterr().err


def test_lab_check_rejects_zero_dt(capsys):
    rc = main(["lab-check", "--dt", "0", "--scale", "400"])
    assert rc == 2
    assert capsys.readouterr().err == "spincat: error: --dt must be > 0, got 0.0\n"


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"fields": {"gamma_b0": 1e6}}, "'fields.gamma_b0'"),
        ({"quadrupole": {"omega_q_hz": 40e3, "etta": 0.5}}, "'quadrupole.etta'"),
        ({"decoherance": {}}, "'decoherance'"),
        ({"output_stride": 7}, "'output_stride'"),
        ({"dt": 1e-9}, "'dt'"),
        ({"output_dir": "results"}, "'output_dir'"),
    ],
)
def test_unknown_config_key_is_a_diagnostic_exit(tmp_path, capsys, doc, key):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    rc = main(["oat", "--config", str(path)])
    assert rc == 2
    assert f"unknown config key {key}" in capsys.readouterr().err


def test_config_that_is_not_an_object_is_a_diagnostic_exit(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[7]")
    rc = main(["oat", "--config", str(path)])
    assert rc == 2
    assert "a config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"spin": {"twice_i": "7"}}, "'spin.twice_i'"),
        ({"spin": {"twice_i": True}}, "'spin.twice_i'"),
        ({"spin": {"twice_i": 7.0}}, "'spin.twice_i'"),
        ({"fields": {"gamma_b0_hz": "8.25e6"}}, "'fields.gamma_b0_hz'"),
        ({"fields": {"gamma_b0_hz": float("nan")}}, "'fields.gamma_b0_hz'"),
        ({"fields": {"gamma_b1_hz": None}}, "'fields.gamma_b1_hz'"),
        ({"quadrupole": {"eta": False}}, "'quadrupole.eta'"),
        ({"quadrupole": {"omega_q_hz": float("inf")}}, "'quadrupole.omega_q_hz'"),
        ({"quadrupole": {"euler_rad": 5}}, "'quadrupole.euler_rad'"),
        ({"quadrupole": {"euler_rad": [0, 0]}}, "'quadrupole.euler_rad'"),
        ({"quadrupole": {"euler_rad": [0, "pi", 0]}}, "'quadrupole.euler_rad'"),
        ({"decoherence": {"gamma_m_per_s": float("nan")}}, "'decoherence.gamma_m_per_s'"),
        ({"dt": "1e-9"}, "'dt'"),
        ({"params": [1]}, "'params'"),
        ({"output_dir": 5}, "'output_dir'"),
        # range errors name the key and give the value in the config's units
        ({"fields": {"gamma_b0_hz": -8.25e6}},
         "'fields.gamma_b0_hz' must be >= 0, got -8250000.0"),
        ({"fields": {"gamma_b1_hz": -800}}, "'fields.gamma_b1_hz' must be >= 0, got -800.0"),
        ({"quadrupole": {"omega_q_hz": -40000}},
         "'quadrupole.omega_q_hz' must be >= 0, got -40000.0"),
        ({"decoherence": {"gamma_m_per_s": -10}},
         "'decoherence.gamma_m_per_s' must be >= 0, got -10.0"),
        ({"decoherence": {"gamma_e_per_s": -0.1}},
         "'decoherence.gamma_e_per_s' must be >= 0, got -0.1"),
        ({"spin": {"twice_i": 0}}, "'spin.twice_i' must be an integer >= 1, got 0"),
        ({"quadrupole": {"eta": 1.5}}, "config key 'quadrupole.eta' must be in [0, 1], got 1.5"),
        ({"quadrupole": {"eta": -0.25}},
         "config key 'quadrupole.eta' must be in [0, 1], got -0.25"),
        ({"fields": {"drive_axis": "z"}},
         "config key 'fields.drive_axis' must be 'x' or 'y', got 'z'"),
    ],
)
def test_config_value_of_wrong_type_is_a_diagnostic_exit(tmp_path, capsys, doc, key):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    rc = main(["oat", "--config", str(path)])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_non_finite_rate_flag_is_a_diagnostic_exit(capsys):
    rc = main(["decoherence", "--gamma-m", "nan"])
    assert rc == 2
    assert capsys.readouterr().err == "spincat: error: --gamma-m must be a finite number, got nan\n"


@pytest.mark.parametrize(
    "argv, params, key",
    [
        (["oat"], {"t_max": "1e-3"}, "'params.t_max'"),
        (["oat"], {"t_max": float("nan")}, "'params.t_max'"),
        (["oat"], {"t_max": True}, "'params.t_max'"),
        (["oat"], {"n_points": 1}, "'params.n_points'"),
        (["oat"], {"n_points": float("inf")}, "'params.n_points'"),
        (["decoherence"], {"n_points": 2.7}, "'params.n_points'"),
        (["ramsey"], {"phase_reference_omega": None}, "'params.phase_reference_omega'"),
        (["virtual-phase"], {"t_wait": [1e-6]}, "'params.t_wait'"),
        (["coherence-scaling"], {"t_final": "fast"}, "'params.t_final'"),
        (["tact"], {"n_steps": 0}, "'params.n_steps'"),
        (["tact"], {"n_output": False}, "'params.n_output'"),
        (["oat"], {"t_max": 0}, "'params.t_max'"),
        (["coherence-scaling"], {"t_final": -1e-3}, "'params.t_final'"),
        (["ramsey"], {"t_max": -1e-3}, "'params.t_max'"),
        (["oat"], {"operator": ["y"]}, "'params.operator'"),
        (["oat"], {"operator": 5}, "'params.operator'"),
        (["oat"], {"operator": "q"}, "'params.operator'"),
        (["tact"], {"operator": ["y"]}, "'params.operator'"),
        (["tact"], {"operator": 5}, "'params.operator'"),
        (["tact"], {"operator": "q"}, "'params.operator'"),
        (["virtual-phase"], {"t_wait": -1}, "'params.t_wait'"),
    ],
)
def test_bad_params_value_is_a_diagnostic_exit(tmp_path, capsys, argv, params, key):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"params": params}))
    rc = main([*argv, "--config", str(path)])
    assert rc == 2
    assert f"config key {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["decoherence", "--gamma-m", "10", "10.0000001"], "--gamma-m"),
        (["decoherence", "--gamma-e", "0.1", "0.1000000001"], "--gamma-e"),
        (["tact", "--eta", "0.1", "0.1000001"], "--eta"),
        (["tact", "--b0-hz", "1e6", "1000000.1"], "--b0-hz"),
    ],
)
def test_two_cases_with_one_output_name_are_refused_before_any_runs(tmp_path, capsys, argv, flag):
    # both values format as one file name (decoherence_gm10_ge0.1.csv,
    # tact_eta0.1_b00Hz.csv), so the second case would overwrite the first
    out = tmp_path / "d"
    assert main([*argv, "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert f"two {flag} values map to the output name" in err
    assert printed == ""
    assert list(out.iterdir()) == []


# older setuptools warn that [tool.setuptools] is beta
@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_the_package_version_is_the_project_version():
    from setuptools.config.pyprojecttoml import read_configuration

    import spincat

    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    project = read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == spincat.__version__


def test_coherence_scaling_reads_gamma_m_from_the_decoherence_section(tmp_path, capsys):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps({"decoherence": {"gamma_m_per_s": 50}}))
    spins = [1, 3, 7]
    argv = ["coherence-scaling", "--spins", *map(str, spins), "--out", str(tmp_path)]
    assert main([*argv, "--config", str(path)]) == 0
    table = np.loadtxt(tmp_path / "coherence_vs_dimension.csv", delimiter=",", ndmin=2)
    assert table[:, 0].tolist() == spins
    want = 0.5 * np.exp(-50.0 * table[:, 0] ** 2 * 1e-3 / 2)
    np.testing.assert_allclose(table[:, 2], want, rtol=1e-6, atol=0)


#: The message of a flag value that ``_checked``'s "> 0" rule refuses.
NOT_POSITIVE = {
    "0": "must be > 0, got 0.0",
    "-1": "must be > 0, got -1.0",
    "nan": "must be a finite number, got nan",
    "inf": "must be a finite number, got inf",
}


@pytest.mark.parametrize("fraction", ["0", "nan"])
def test_husimi_time_fraction_must_be_positive(capsys, fraction):
    rc = main(["husimi", "--time-fraction", fraction])
    assert rc == 2
    assert capsys.readouterr().err == f"spincat: error: --time-fraction {NOT_POSITIVE[fraction]}\n"


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_lab_check_scale_must_be_positive(capsys, scale):
    rc = main(["lab-check", "--scale", scale])
    assert rc == 2
    assert capsys.readouterr().err == f"spincat: error: --scale {NOT_POSITIVE[scale]}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lab-check", "--dt=-1e-9"], "--dt must be > 0, got -1e-09"),
        (["husimi", "--n-theta", "1"], "--n-theta must be an integer >= 2, got 1"),
        (["husimi", "--n-phi", "0"], "--n-phi must be an integer >= 2, got 0"),
        (["coherence-scaling", "--spins", "3", "0"], "--spins must be an integer >= 1, got 0"),
        (["tact", "--eta", "0", "2"], "--eta must be in [0, 1], got 2.0"),
        (["tact", "--b0-hz=-5"], "--b0-hz must be >= 0, got -5.0"),
        (["decoherence", "--gamma-m=-1"], "--gamma-m must be >= 0, got -1.0"),
        (["decoherence", "--gamma-e", "0.1", "inf"], "--gamma-e must be a finite number, got inf"),
    ],
)
def test_numeric_flag_is_checked_before_any_case_runs(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"spincat: error: {message}\n")
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_givens_report_without_twisting_is_strict_json(tmp_path, capsys):
    path = tmp_path / "spin_half.json"
    path.write_text(json.dumps({"spin": {"twice_i": 1}}))
    assert main(["givens", "--mode", "create", "--config", str(path), "--out", str(tmp_path)]) == 0
    # both files parse without the Infinity/NaN extension of Python's json
    manifest, report = (
        json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)
        for name in ("givens_manifest.json", "givens_create_report.json")
    )
    assert manifest["scenario"] == "givens"
    assert report["oat_period_s"] is None


@pytest.mark.parametrize(
    "grid, name",
    [
        (["--n-theta", "0"], "n_theta"),
        (["--n-theta", "1", "--n-phi", "1"], "n_theta"),
        (["--n-phi", "0"], "n_phi"),
        (["--n-phi", "1"], "n_phi"),
    ],
)
def test_husimi_grid_must_span_the_sphere(capsys, grid, name):
    rc = main(["husimi", *grid])
    assert rc == 2
    flag = "--" + name.replace("_", "-")
    value = grid[grid.index(flag) + 1]
    message = f"{flag} must be an integer >= 2, got {value}"
    assert capsys.readouterr().err == f"spincat: error: {message}\n"


def test_tact_without_quadrupole_needs_t_max(tmp_path, capsys):
    path = tmp_path / "no_quad.json"
    path.write_text(json.dumps({"quadrupole": {"omega_q_hz": 0}}))
    rc = main(["tact", "--config", str(path)])
    assert rc == 2
    assert "'quadrupole.omega_q_hz' is 0" in capsys.readouterr().err
    # with an explicit span the Zeeman-only run is well defined
    path.write_text(json.dumps(
        {"quadrupole": {"omega_q_hz": 0}, "params": {"t_max": 1e-6, "n_output": 10}}
    ))
    assert main(["tact", "--config", str(path), "--eta", "0", "--b0-hz", "0"]) == 0


def test_tact_without_a_field_runs_each_case_once(tmp_path, capsys, monkeypatch):
    # the default fields are 0 and gamma_b0_hz; with gamma_b0_hz 0 those are
    # one field, so each eta is one case, one line and one pair of tables
    import spincat.cli

    written = []

    def recording(writer):
        def write(table, path, *args, **kwargs):
            written.append(os.path.basename(path))
            writer(table, path, *args, **kwargs)

        return write

    for name in ("save_size_series", "save_husimi"):
        monkeypatch.setattr(spincat.cli, name, recording(getattr(spincat.cli, name)))
    path = tmp_path / "no_field.json"
    path.write_text(json.dumps(
        {"fields": {"gamma_b0_hz": 0}, "params": {"t_max": 1e-7, "n_steps": 10}}
    ))
    out = tmp_path / "d"
    assert main(["tact", "--config", str(path), "--out", str(out)]) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert labels == ["tact eta0_b00Hz", "tact eta1_b00Hz"]
    tables = [f"tact_eta{eta}_b00Hz{kind}.csv" for eta in (0, 1) for kind in ("", "_husimi")]
    assert sorted(written) == tables
    assert sorted(os.listdir(out)) == sorted(tables + ["tact_manifest.json"])


def test_tact_corner_case_gets_its_own_tables_when_the_config_has_its_angles(tmp_path, capsys):
    # the config's principal axis is already the corner case's (0, pi/2, 0);
    # the corner case is marked where it is made, so it still writes its own
    # "_corner" tables instead of overwriting eta0_b00Hz's
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps({
        "spin": {"twice_i": 3},
        "quadrupole": {"omega_q_hz": 40e3, "eta": 0.0, "euler_rad": [0, np.pi / 2, 0]},
        "params": {"t_max": 1e-7, "n_steps": 10},
    }))
    out = tmp_path / "d"
    assert main(["tact", "--corner", "--config", str(path), "--out", str(out)]) == 0
    labels = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert labels == [
        "tact eta0_b00Hz", "tact eta0_b08.25e+06Hz", "tact eta1_b00Hz",
        "tact eta1_b08.25e+06Hz", "tact eta0_b00Hz_corner",
    ]
    tables = [
        f"{label.removeprefix('tact ')}{kind}.csv" for label in labels for kind in ("", "_husimi")
    ]
    assert sorted(os.listdir(out)) == sorted(
        [f"tact_{name}" for name in tables] + ["tact_manifest.json"]
    )


@pytest.mark.parametrize("twice_i", [7, 25])
def test_tact_samples_both_eta0_cats_at_the_cat_time(tmp_path, capsys, twice_i):
    # the cat forms at pi / (2 omega_q) = 6.25 us with and without the field;
    # the field case's grid stores every 7th of 28 000 steps, so it lands
    # there too.  Its peak is 2I within 6.3e-14 (2I = 7) and 1.4e-13
    # (2I = 25) measured
    path = tmp_path / "spin.json"
    path.write_text(json.dumps({"spin": {"twice_i": twice_i}}))
    out = tmp_path / "d"
    assert main(["tact", "--config", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for label in ("eta0_b00Hz", "eta0_b08.25e+06Hz"):
        (line,) = [x for x in lines if x.startswith(f"tact {label}:")]
        assert line.endswith(f"max N_eff(y) = {twice_i:.4f} at t = 6.250 us")
    table = np.loadtxt(out / "tact_eta0_b08.25e+06Hz.csv", delimiter=",")
    assert len(table) == 4001
    assert np.diff(table[:, 0]) == pytest.approx(6.25e-9, rel=1e-9)
    assert abs(table[:, 1].max() - twice_i) <= 5e-13


def test_main_calls_share_one_parser_and_get_their_own_defaults(tmp_path, capsys):
    # the parser is built once per process; a flag given to one call must
    # not become the next call's default
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"params": {"t_max": 1e-4, "n_points": 11}}))
    for argv, name in (
        (["ramsey", "--phase-rule", "fixed"], "fixed"),
        (["ramsey"], "rotating"),
    ):
        out = tmp_path / name
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"ramsey ({name}):")
        assert sorted(os.listdir(out)) == ["ramsey_manifest.json", f"ramsey_neff_{name}.csv"]
        extras = json.loads((out / "ramsey_manifest.json").read_text())["extras"]
        assert extras == {"phase_rule": name}
    assert build_parser() is build_parser()


def test_tact_measures_a_revived_eigenstate_along_x(tmp_path, capsys):
    # Ix at 2I = 7: at the full revival the state is back to the Ix
    # eigenstate, <Ix^2> = 12.25 and Var Ix is a cancellation of two such
    # numbers, -1.1e-12 to -3.4e-12; the variance clamp scales with <Ix^2>
    path = tmp_path / "tact_x.json"
    path.write_text(json.dumps({"spin": {"twice_i": 7}, "params": {"operator": "x"}}))
    assert main(["tact", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("max N_eff(x) = ") == 4


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"spin": {"twice_i": 1}}, "config key 'spin.twice_i' is 1"),
        ({"quadrupole": {"omega_q_hz": 0}}, "config key 'quadrupole.omega_q_hz' is 0"),
    ],
)
def test_ramsey_without_twisting_needs_t_max(tmp_path, capsys, doc, key):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    assert main(["ramsey", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err
    path.write_text(json.dumps({**doc, "params": {"t_max": 1e-4, "n_points": 11}}))
    rc = main(["ramsey", "--config", str(path)])
    out, err = capsys.readouterr()
    if doc == {"spin": {"twice_i": 1}}:
        # a single transition cannot be degenerate: the explicit span runs
        assert rc == 0 and "over 11 points" in out
    else:
        # without the quadrupole term all seven transitions share one frequency
        assert rc == 2
        assert "config key 'quadrupole.omega_q_hz' = 0 leaves" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["givens", "--mode", "create"],
        ["givens", "--mode", "collapse"],
        ["ramsey"],
        ["decoherence"],
        ["virtual-phase"],
        ["lab-check"],
    ],
    ids=["create", "collapse", "ramsey", "decoherence", "virtual-phase", "lab-check"],
)
def test_givens_rejects_a_degenerate_ladder(tmp_path, capsys, argv):
    # every rotating-frame command maps tones to transitions the same way
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(
        {"quadrupole": {"omega_q_hz": 0}, "params": {"t_max": 1e-4, "n_points": 11}}
    ))
    assert main([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config key 'quadrupole.omega_q_hz' = 0 leaves two transition frequencies" in err


def test_lab_check_rejects_a_step_beyond_the_drive_series(capsys):
    # at scale 20, ||gamma_B1 Iy||_2 = 3.5e5 rad/s: 10 us steps give 3.5
    assert main(["lab-check", "--dt", "1e-5"]) == 2
    err = capsys.readouterr().err
    assert "||x||_2 dt = 3.5 > 1" in err and "reduce dt" in err


def test_lab_check_takes_dt_from_its_flag_only(tmp_path, capsys):
    path = tmp_path / "dt.json"
    path.write_text(json.dumps({"dt": 5e-8}))
    assert main(["lab-check", "--scale", "400", "--config", str(path)]) == 2
    assert "unknown config key 'dt'" in capsys.readouterr().err
    printed = []
    for extra in (["--dt", "5e-8"], []):
        assert main(["lab-check", "--scale", "400", *extra]) == 0
        printed.append(capsys.readouterr().out.split(";")[0])
    assert "219 steps of 49.9" in printed[0]
    assert "10938 steps of 1.000 ns" in printed[1]


def test_coherence_table_matches_the_row_by_row_bytes(tmp_path, capsys):
    assert main(["coherence-scaling", "--spins", "1", "3", "7", "--out", str(tmp_path)]) == 0
    # the row-by-row writer the command had before the shared table writer
    oracle = tmp_path / "old.csv"
    with open(oracle, "w") as fh:
        fh.write("# twice_i,dimension,coherence,analytic\n")
        for row in coherence_scaling(paper_config(), [1, 3, 7]):
            fh.write(f"{row.twice_i},{row.dimension},{row.coherence!r},{row.analytic!r}\n")
    assert (tmp_path / "coherence_vs_dimension.csv").read_bytes() == oracle.read_bytes()


def test_cli_writes_files_through_the_observables_writers():
    # every table and report goes through a public writer of observables
    # (the manifest through scenarios.write_manifest): cli opens no file for
    # writing and takes no private name from observables
    for node in ast.walk(ast.parse(inspect.getsource(spincat.cli))):
        if isinstance(node, ast.ImportFrom) and node.module == "observables":
            assert [a.name for a in node.names if a.name.startswith("_")] == []
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            assert all(isinstance(m, ast.Constant) and set(m.value) <= set("rbt") for m in modes), (
                ast.unparse(node)
            )


#: Every command on a small grid, each flag it takes set away from its default.
REPLAY_RUNS = {
    "oat": (["oat"], {"n_points": 11}),
    "ramsey": (["ramsey", "--phase-rule", "fixed"], {"t_max": 1e-4, "n_points": 11}),
    "virtual-phase": (["virtual-phase"], {}),
    "givens": (["givens", "--mode", "create"], {}),
    "decoherence": (
        ["decoherence", "--gamma-m", "10", "20", "--gamma-e", "0.5"],
        {"t_max": 1e-4, "n_points": 11},
    ),
    "coherence-scaling": (["coherence-scaling", "--spins", "3", "5"], {}),
    "tact": (["tact", "--eta", "0.5", "--b0-hz", "0", "--corner"], {"t_max": 1e-7, "n_steps": 10}),
    "husimi": (["husimi", "--time-fraction", "0.25", "--n-theta", "5", "--n-phi", "9"], {}),
    "lab-check": (["lab-check", "--scale", "400", "--dt", "2e-9"], {}),
}


def _replay_argv(manifest: dict, config_path, out) -> list:
    """The argv of a run rebuilt from its manifest alone."""
    argv = [manifest["scenario"], "--config", str(config_path), "--out", str(out)]
    for key, value in manifest.get("extras", {}).items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif value not in (None, False):
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("command", sorted(REPLAY_RUNS))
def test_a_run_replays_from_its_manifest(tmp_path, capsys, command):
    argv, params = REPLAY_RUNS[command]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"params": params}))
    first, second = tmp_path / "A", tmp_path / "B"
    assert main([*argv, "--config", str(config), "--out", str(first)]) == 0
    printed = capsys.readouterr().out
    manifest = json.loads((first / f"{command}_manifest.json").read_text())
    replay_config = tmp_path / "replay.json"
    replay_config.write_text(json.dumps(manifest["config"]))
    assert main(_replay_argv(manifest, replay_config, second)) == 0
    assert capsys.readouterr().out == printed
    tables = sorted(p.name for p in first.iterdir() if not p.name.endswith("_manifest.json"))
    assert tables == sorted(p.name for p in second.iterdir() if not p.name.endswith("_manifest.json"))
    assert (tables == []) == (command == "lab-check")
    for name in tables:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    replayed = json.loads((second / f"{command}_manifest.json").read_text())
    assert replayed.get("extras") == manifest.get("extras")
    if command == "lab-check":
        assert manifest["extras"]["dt"] == 2e-9


@pytest.mark.parametrize(
    "command",
    ["oat", "ramsey", "virtual-phase", "givens", "decoherence", "coherence-scaling", "husimi",
     "tact"],
)
def test_dt_is_a_flag_of_the_stepping_commands_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--dt", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt 5" in capsys.readouterr().err


#: Everything a user can set: the dotted config keys, the ScenarioConfig
#: fields and each subcommand's flags.  A new knob has to be added here.
SETTABLE = {
    "config keys": [
        "spin.twice_i",
        "fields.gamma_b0_hz", "fields.gamma_b1_hz", "fields.drive_axis",
        "quadrupole.omega_q_hz", "quadrupole.eta", "quadrupole.euler_rad",
        "decoherence.gamma_m_per_s", "decoherence.gamma_e_per_s",
        "params",
    ],
    "ScenarioConfig": ["spin", "fields", "quad", "decoherence", "params"],
    "oat": ["--config", "--out"],
    "ramsey": ["--config", "--out", "--phase-rule"],
    "virtual-phase": ["--config", "--out"],
    "givens": ["--config", "--out", "--mode"],
    "decoherence": ["--config", "--out", "--gamma-m", "--gamma-e"],
    "coherence-scaling": ["--config", "--out", "--spins"],
    "tact": ["--config", "--out", "--eta", "--b0-hz", "--corner"],
    "husimi": ["--config", "--out", "--time-fraction", "--n-theta", "--n-phi"],
    "lab-check": ["--config", "--out", "--scale", "--dt"],
}


def test_settable_surface_matches_its_table():
    keys = []
    for key, section in config_to_dict(paper_config()).items():
        keys += [key] if key == "params" else [f"{key}.{sub}" for sub in section]
    found = {
        "config keys": keys,
        "ScenarioConfig": [f.name for f in dataclasses.fields(ScenarioConfig)],
    }
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in commands.choices.items():
        found[name] = [
            opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
            for opt in a.option_strings
        ]
    assert found == SETTABLE


def _loads_scipy(argvs) -> bool:
    """Whether a fresh interpreter that runs each argv through ``main``,
    each exiting 0, has imported scipy by the end."""
    code = (
        "import contextlib, io, json, sys\n"
        "import spincat.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert spincat.cli.main(argv) == 0, argv\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(spincat.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.strip()]


def test_only_the_sampled_runs_load_scipy(tmp_path):
    # scipy.linalg.expm is left in one place, dynamics._sample_exact: the
    # exponential of tact's constant H.  ramsey and decoherence take their
    # Lindblad steps as actions on rho, and every command but tact runs on
    # numpy alone and skips scipy's import (~0.25 s and ~25 MiB)
    config = tmp_path / "spin3.json"
    config.write_text(json.dumps({"spin": {"twice_i": 3}}))
    cfg = ["--config", str(config)]
    assert not _loads_scipy([
        ["lab-check", "--scale", "400", "--dt", "1e-8", *cfg],
        ["virtual-phase", *cfg],
        ["givens", "--mode", "create", *cfg],
        ["oat", *cfg],
        ["husimi", *cfg],
        ["coherence-scaling", *cfg],
        ["ramsey", *cfg],
        ["decoherence", *cfg],
    ])
    assert _loads_scipy([["tact", *cfg]])
