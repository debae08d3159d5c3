"""Per-job correctness checks at the tolerances of the acceptance tests.

Each check compares one job's output files (or, for lab-check, its printed
summary and an independent library call) with the paper numbers.  A check is
an error and the tolerance it must stay within; ``err / tol`` is how close
the job came to failing.  The checks read only the job's output directory
and its config, so they run outside the timed region.
"""

from __future__ import annotations

import glob
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .workloads import Job

#: Revival peaks are interior local maxima of N_eff above this share of 2I.
PEAK_SHARE = 0.7

#: Rounding allowance for N_eff in [0, 2I], as a share of 2I.
RANGE_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.err <= self.tol

    @property
    def ratio(self) -> float:
        if self.tol > 0:
            return self.err / self.tol
        return 0.0 if self.err <= 0 else math.inf


def _exact(name: str, got, want) -> Check:
    return Check(f"{name} {got}=={want}", 0.0 if got == want else 1.0, 0.0)


def _at_least(name: str, value: float, limit: float, ideal: float) -> Check:
    """value >= limit, scored as the shortfall from the ideal value."""
    return Check(name, ideal - value, ideal - limit)


def _missing(name: str) -> list:
    return [Check(f"{name} missing", math.inf, 0.0)]


def _load_series(path: str) -> tuple:
    table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return table[:, 0], table[:, 1]


def _revival_period(job: Job) -> float:
    """pi / omega_q_eff; the EFG is aligned with eta = 0, so omega_q_eff = omega_q."""
    return 0.5 / job.config["quadrupole"]["omega_q_hz"]


def _range_check(values, twice_i: int) -> Check:
    excess = max(float(values.max()) - twice_i, -float(values.min()), 0.0)
    return Check("N_eff in [0, 2I]", excess, RANGE_TOL * twice_i)


def _cat_and_revivals(times, values, twice_i: int, period: float) -> list:
    """Peak N_eff within 1% of 2I; revival spacing within one grid step."""
    checks = [Check("peak N_eff vs 2I", abs(float(values.max()) - twice_i), 0.01 * twice_i)]
    v = values
    idx = np.where((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
    idx = idx[v[idx] >= PEAK_SHARE * twice_i]
    step = float(times[1] - times[0])
    if len(idx) < 2:
        checks.append(Check(f"revivals found {len(idx)}<2", math.inf, step))
    else:
        spacing = np.diff(times[idx])
        checks.append(Check("revival spacing vs pi/omega_q", float(np.max(np.abs(spacing - period))), step))
    return checks


def _check_size_series(job: Job, path: str) -> list:
    if not os.path.exists(path):
        return _missing(os.path.basename(path))
    t, v = _load_series(path)
    return [_range_check(v, job.twice_i)] + _cat_and_revivals(t, v, job.twice_i, _revival_period(job))


def check_oat(job, out, stdout):
    return _check_size_series(job, os.path.join(out, "oat_neff.csv"))


def check_ramsey(job, out, stdout):
    rule = job.argv[job.argv.index("--phase-rule") + 1]
    path = os.path.join(out, f"ramsey_neff_{rule}.csv")
    if rule == "rotating":
        return _check_size_series(job, path)
    # the fixed-phase rule oscillates at gamma*B0/pi, which the grid aliases
    if not os.path.exists(path):
        return _missing(os.path.basename(path))
    return [_range_check(_load_series(path)[1], job.twice_i)]


def check_decoherence(job, out, stdout):
    paths = glob.glob(os.path.join(out, "decoherence_gm*_ge*.csv"))
    if len(paths) != 1:
        return [_exact("decoherence tables", len(paths), 1)]
    t, v = _load_series(paths[0])
    first_peak = float(v[t <= _revival_period(job)].max())
    return [
        _exact("samples", len(v), job.config["params"]["n_points"]),
        _range_check(v, job.twice_i),
        Check("final N_eff below first peak", float(v[-1]), first_peak),
    ]


def check_virtual_phase(job, out, stdout):
    path = os.path.join(out, "virtual_phase_report.json")
    if not os.path.exists(path):
        return _missing("virtual_phase_report.json")
    with open(path) as fh:
        report = json.load(fh)
    return [Check("virtual-phase infidelity", 1.0 - report["fidelity"], 0.01)]


def check_givens(job, out, stdout):
    mode = job.argv[job.argv.index("--mode") + 1]
    path = os.path.join(out, f"givens_{mode}_report.json")
    if not os.path.exists(path):
        return _missing(os.path.basename(path))
    with open(path) as fh:
        report = json.load(fh)
    n = job.twice_i
    if mode == "create":
        top, bottom = report["edge_populations"]
        return [
            _exact("pulses", report["n_pulses"], n),
            Check("population m=I vs 1/2", abs(top - 0.5), 1e-6),
            Check("population m=-I vs 1/2", abs(bottom - 0.5), 1e-6),
        ]
    return [
        _exact("pulses", report["n_pulses"], 2 * n),
        Check("collapse infidelity", 1.0 - report["fidelity_to_bottom"], 1e-6),
    ]


def check_husimi(job, out, stdout):
    paths = glob.glob(os.path.join(out, "husimi_f*.csv"))
    if len(paths) != 1:
        return [_exact("husimi tables", len(paths), 1)]
    table = np.loadtxt(paths[0], delimiter=",", comments="#", ndmin=2)
    thetas = np.unique(table[:, 0])
    phis = np.unique(table[:, 1])
    checks = [_exact("rows", len(table), 181 * 361)]
    if len(table) == len(thetas) * len(phis):
        q = table[:, 2].reshape(len(thetas), len(phis))
        integral = np.trapezoid(np.trapezoid(q * np.sin(thetas)[:, None], phis, axis=1), thetas)
        checks.append(Check("sphere integral vs 1", abs(float(integral) - 1.0), 1e-4))
    return checks


_TACT_HEADER = re.compile(r"# eta: ([^,]+), gamma_b0_hz: (\S+)")


def check_tact(job, out, stdout):
    """Criterion 7: eta = 1 without a field stays at or below half the cat
    size; every other case reaches at least 0.9 * 2I."""
    n = job.twice_i
    paths = sorted(p for p in glob.glob(os.path.join(out, "tact_*.csv")) if not p.endswith("_husimi.csv"))
    checks = [_exact("tact tables", len(paths), 4)]
    for path in paths:
        with open(path) as fh:
            fh.readline()
            match = _TACT_HEADER.match(fh.readline())
        if match is None:
            checks.append(Check(f"{os.path.basename(path)} header", math.inf, 0.0))
            continue
        eta, b0 = float(match.group(1)), float(match.group(2))
        peak = float(_load_series(path)[1].max())
        label = f"eta={eta:g} b0={b0:g}Hz max N_eff"
        if eta == 1.0 and b0 == 0.0:
            checks.append(Check(label + " <= I", peak, 0.5 * n))
        else:
            checks.append(_at_least(label + " >= 0.9*2I", peak, 0.9 * n, n))
    return checks


def check_coherence_scaling(job, out, stdout):
    """Cat coherence within 1e-6 relative of (1/2) exp(-Gamma_m (2I)^2 t / 2)."""
    path = os.path.join(out, "coherence_vs_dimension.csv")
    if not os.path.exists(path):
        return _missing("coherence_vs_dimension.csv")
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    spins = [int(a) for a in job.argv[job.argv.index("--spins") + 1:]]
    checks = [_exact("spins", [int(r) for r in rows[:, 0]], spins)]
    params = job.config["params"]
    for twice_i, coherence in zip(rows[:, 0], rows[:, 2]):
        analytic = 0.5 * math.exp(-params["gamma_m"] * twice_i ** 2 * params["t_final"] / 2)
        checks.append(Check(f"2I={int(twice_i)} coherence rel err", abs(coherence - analytic) / analytic, 1e-6))
    return checks


_LAB_LINE = re.compile(
    r"lab-check: scale = \S+, (\d+) steps of .*infidelity vs rotating-frame model = (\S+), "
    r"vs ideal coherent state = (\S+)"
)


class Checker:
    """Runs the check for a job's command.  lab-check writes no table, so its
    printed summary is compared with ``multitone_lab_validation``, computed
    once per job config and cached for the run."""

    def __init__(self):
        self._lab_reference = {}

    def check(self, job: Job, out: str, stdout: str) -> list:
        if job.command == "lab-check":
            checks = self.check_lab(job, stdout)
        else:
            checks = _BY_COMMAND[job.command](job, out, stdout)
        return checks + [check_manifest(job, out)]

    def lab_reference(self, job: Job):
        if job.name not in self._lab_reference:
            from spincat.scenarios import config_from_dict, multitone_lab_validation

            scale = float(job.argv[job.argv.index("--scale") + 1])
            self._lab_reference[job.name] = multitone_lab_validation(
                config_from_dict(job.config), scale=scale, dt=1e-9
            )
        return self._lab_reference[job.name]

    def check_lab(self, job: Job, stdout: str) -> list:
        """Lab-frame infidelities within the rotating-wave budget (gamma*B1/omega_q)^2."""
        match = _LAB_LINE.search(stdout)
        if match is None:
            return [Check("lab-check summary line", math.inf, 0.0)]
        ref = self.lab_reference(job)
        budget = (job.config["fields"]["gamma_b1_hz"] / job.config["quadrupole"]["omega_q_hz"]) ** 2
        printed_model, printed_ideal = float(match.group(2)), float(match.group(3))
        return [
            _exact("steps", int(match.group(1)), ref.n_steps),
            Check("infidelity vs model", ref.infidelity_vs_model, budget),
            Check("infidelity vs ideal", ref.infidelity_vs_ideal, budget),
            # the summary prints four significant digits
            Check("printed vs reference (model)", abs(printed_model / ref.infidelity_vs_model - 1), 1e-3),
            Check("printed vs reference (ideal)", abs(printed_ideal / ref.infidelity_vs_ideal - 1), 1e-3),
        ]


def check_manifest(job: Job, out: str) -> Check:
    path = os.path.join(out, f"{job.command}_manifest.json")
    try:
        with open(path) as fh:
            twice_i = json.load(fh)["config"]["spin"]["twice_i"]
    except (OSError, ValueError, KeyError):
        return Check("manifest readable", math.inf, 0.0)
    return _exact("manifest 2I", twice_i, job.twice_i)


_BY_COMMAND = {
    "oat": check_oat,
    "ramsey": check_ramsey,
    "decoherence": check_decoherence,
    "virtual-phase": check_virtual_phase,
    "givens": check_givens,
    "husimi": check_husimi,
    "tact": check_tact,
    "coherence-scaling": check_coherence_scaling,
}
