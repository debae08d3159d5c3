import json

import numpy as np
import pytest

from spincat.cli import main


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
    assert "error" in capsys.readouterr().err


def test_husimi_command(tmp_path, capsys):
    rc = main(["husimi", "--time-fraction", "0.5", "--n-theta", "61",
               "--n-phi", "121", "--out", str(tmp_path)])
    assert rc == 0
    assert "sphere integral" in capsys.readouterr().out
    assert (tmp_path / "husimi_f0.5.csv").exists()


def test_lab_check_rejects_nan_dt(capsys):
    rc = main(["lab-check", "--dt", "nan"])
    assert rc == 2
    assert "dt must be finite" in capsys.readouterr().err


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
    assert "dt must be positive, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"fields": {"gamma_b0": 1e6}}, "'fields.gamma_b0'"),
        ({"quadrupole": {"omega_q_hz": 40e3, "etta": 0.5}}, "'quadrupole.etta'"),
        ({"decoherance": {}}, "'decoherance'"),
        ({"output_stride": 7}, "'output_stride'"),
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
    assert "gamma_m must be finite" in capsys.readouterr().err


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
        (["coherence-scaling"], {"gamma_m": "fast"}, "'params.gamma_m'"),
        (["tact"], {"n_steps": 0}, "'params.n_steps'"),
        (["tact"], {"n_output": False}, "'params.n_output'"),
    ],
)
def test_bad_params_value_is_a_diagnostic_exit(tmp_path, capsys, argv, params, key):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"params": params}))
    rc = main([*argv, "--config", str(path)])
    assert rc == 2
    assert f"config key {key} must be" in capsys.readouterr().err


def test_lab_check_reads_dt_from_the_config(tmp_path, capsys):
    path = tmp_path / "dt.json"
    path.write_text(json.dumps({"dt": 5e-8}))
    runs = (["--config", str(path)], ["--dt", "5e-8"], [])
    printed = []
    for extra in runs:
        assert main(["lab-check", "--scale", "400", *extra]) == 0
        printed.append(capsys.readouterr().out.split(";")[0])
    assert printed[0] == printed[1]
    assert "219 steps of 49.9" in printed[0]
    assert "10938 steps of 1.000 ns" in printed[2]
