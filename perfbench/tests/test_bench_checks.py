"""Each check passes on real output and rejects a deliberately corrupted copy."""

import contextlib
import dataclasses
import glob
import io
import json
import os

import numpy as np
import spincat.cli
from spincat.scenarios import LabValidationResult

from perfbench import checks, workloads


def _job(workload, name, params=None, argv=None):
    job = next(j for j in workloads.build(workload, 1).jobs if j.name == name)
    if params:
        config = dict(job.config, params=dict(job.config["params"], **params))
        job = dataclasses.replace(job, config=config)
    if argv:
        job = dataclasses.replace(job, argv=tuple(argv))
    return job


def _run(job, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "config.json"
    config.write_text(workloads.config_text(job))
    out = str(tmp_path / "out")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert spincat.cli.main([*job.argv, "--config", str(config), "--out", out]) == 0
    return out, stdout.getvalue()


def _failed(job, out, stdout="", checker=None):
    return [c.name for c in (checker or checks.Checker()).check(job, out, stdout) if not c.ok]


def _rewrite_table(path, fn):
    """Apply fn to the numeric table of a CSV output, keeping its header."""
    with open(path) as fh:
        header = [line for line in fh if line.startswith("#")]
    table = fn(np.loadtxt(path, delimiter=",", comments="#", ndmin=2))
    with open(path, "w") as fh:
        fh.writelines(header)
        for row in table:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _scale_column(col, factor):
    def fn(table):
        table = table.copy()
        table[:, col] *= factor
        return table

    return fn


def _edit_json(path, **changes):
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(changes)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_oat_rejects_scaled_table_and_dropped_revival(tmp_path):
    job = _job("dimension_scan", "oat-2I3")
    out, stdout = _run(job, tmp_path)
    assert _failed(job, out) == []
    path = os.path.join(out, "oat_neff.csv")
    original = open(path).read()

    _rewrite_table(path, _scale_column(1, 1.05))
    assert any(name.startswith("peak") for name in _failed(job, out))

    open(path, "w").write(original)
    period = 0.5 / job.config["quadrupole"]["omega_q_hz"]
    _rewrite_table(path, lambda t: t[t[:, 0] < period])
    assert any(name.startswith("revivals found") for name in _failed(job, out))


def test_fixed_phase_ramsey_rejects_values_above_2i(tmp_path):
    job = _job("revival_sweeps", "ramsey-fixed", params={"n_points": 51})
    out, _ = _run(job, tmp_path)
    assert _failed(job, out) == []
    _rewrite_table(os.path.join(out, "ramsey_neff_fixed.csv"), _scale_column(1, 2.0))
    assert "N_eff in [0, 2I]" in _failed(job, out)


def test_decoherence_rejects_scaled_and_truncated_tables(tmp_path):
    job = _job("revival_sweeps", "decoherence", params={"t_max": 40e-6, "n_points": 401, "pulse_dt": 1e-5})
    out, _ = _run(job, tmp_path)
    assert _failed(job, out) == []
    (path,) = glob.glob(os.path.join(out, "decoherence_*.csv"))
    original = open(path).read()

    _rewrite_table(path, _scale_column(1, 1.5))
    assert "N_eff in [0, 2I]" in _failed(job, out)

    open(path, "w").write(original)
    _rewrite_table(path, lambda t: t[:-1])
    assert any(name.startswith("samples") for name in _failed(job, out))


def test_virtual_phase_rejects_low_fidelity(tmp_path):
    job = _job("revival_sweeps", "virtual-phase")
    out, _ = _run(job, tmp_path)
    assert _failed(job, out) == []
    _edit_json(os.path.join(out, "virtual_phase_report.json"), fidelity=0.98)
    assert _failed(job, out) == ["virtual-phase infidelity"]


def test_givens_rejects_wrong_populations_fidelity_and_pulse_count(tmp_path):
    create = _job("dimension_scan", "givens-create-2I3")
    out, _ = _run(create, tmp_path / "create")
    assert _failed(create, out) == []
    _edit_json(os.path.join(out, "givens_create_report.json"), edge_populations=[0.5, 0.49], n_pulses=4)
    failed = _failed(create, out)
    assert "population m=-I vs 1/2" in failed and any(n.startswith("pulses") for n in failed)

    collapse = _job("revival_sweeps", "givens-collapse")
    out, _ = _run(collapse, tmp_path / "collapse")
    assert _failed(collapse, out) == []
    _edit_json(os.path.join(out, "givens_collapse_report.json"), fidelity_to_bottom=1 - 1e-5)
    assert _failed(collapse, out) == ["collapse infidelity"]


def test_husimi_rejects_unnormalised_table(tmp_path):
    job = _job("dimension_scan", "husimi-2I3")
    out, _ = _run(job, tmp_path)
    assert _failed(job, out) == []
    (path,) = glob.glob(os.path.join(out, "husimi_f*.csv"))
    _rewrite_table(path, _scale_column(2, 1.01))
    assert _failed(job, out) == ["sphere integral vs 1"]


def test_tact_rejects_a_cat_without_field_at_eta_1(tmp_path):
    job = _job("dimension_scan", "tact-2I7")
    out, _ = _run(job, tmp_path)
    assert _failed(job, out) == []
    _rewrite_table(os.path.join(out, "tact_eta1_b00Hz.csv"), _scale_column(1, 1.05))
    assert _failed(job, out) == ["eta=1 b0=0Hz max N_eff <= I"]


def test_coherence_scaling_rejects_off_law_value(tmp_path):
    job = _job("dimension_scan", "coherence-scaling", argv=["coherence-scaling", "--spins", "1", "3"])
    out, _ = _run(job, tmp_path)
    assert _failed(job, out) == []
    _rewrite_table(os.path.join(out, "coherence_vs_dimension.csv"),
                   lambda t: np.where(np.arange(4) == 2, t * (1 + 1e-5), t))
    assert _failed(job, out) == ["2I=1 coherence rel err", "2I=3 coherence rel err"]


def test_lab_check_rejects_misprinted_or_over_budget_infidelity(tmp_path):
    job = _job("lab_pulses", "lab-check-2I3")
    line = ("lab-check: scale = 25, 75000 steps of 1.000 ns; infidelity vs rotating-frame "
            "model = {:.3e}, vs ideal coherent state = {:.3e}")
    checker = checks.Checker()
    checker._lab_reference[job.name] = LabValidationResult(25.0, 1e-9, 75e-6, 75000, 5.56e-6, 5.57e-6)
    assert all(c.ok for c in checker.check_lab(job, line.format(5.56e-6, 5.57e-6)))
    assert [c.name for c in checker.check_lab(job, line.format(5.60e-6, 5.57e-6)) if not c.ok] == [
        "printed vs reference (model)"
    ]
    checker._lab_reference[job.name] = LabValidationResult(25.0, 1e-9, 75e-6, 75000, 5e-4, 5e-4)
    failed = [c.name for c in checker.check_lab(job, line.format(5e-4, 5e-4)) if not c.ok]
    assert failed == ["infidelity vs model", "infidelity vs ideal"]


def test_missing_manifest_fails(tmp_path):
    job = _job("revival_sweeps", "givens-collapse")
    out, _ = _run(job, tmp_path)
    os.remove(os.path.join(out, "givens_manifest.json"))
    assert _failed(job, out) == ["manifest readable"]


def test_check_ratio():
    assert checks.Check("x", 0.5, 1.0).ratio == 0.5
    assert checks.Check("x", 0.0, 0.0).ratio == 0.0
    assert not checks.Check("x", 1.0, 0.0).ok

