"""Seeded inputs: the config files and argv of each workload's jobs.

A seed draws the physical parameters (omega_q, gamma*B1, gamma*B0, Gamma_m,
Gamma_e and the lab-check scale) from narrow windows around the paper values.
The seed never changes the job list or the grid sizes, so the work in one
pass moves by only a few percent between seeds.  The program sees only the
config files and argv built here.

Every job also has a warm-up twin with the same command and spin but tiny
grids; it is run untimed before the first pass so that lazy first-call costs
land in set-up, not in the timed passes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

#: Paper values of the drawn parameters (frequencies in Hz, rates in 1/s).
PAPER = {
    "omega_q_hz": 40e3,
    "gamma_b1_hz": 800.0,
    "gamma_b0_hz": 8.25e6,
    "gamma_m_per_s": 10.0,
    "gamma_e_per_s": 0.1,
}

#: Relative half-width of the window each parameter is drawn from.  gamma*B1
#: sets the pulse lengths and omega_q the time windows, so they are kept
#: within +-0.5% to hold step counts steady across seeds.
SPREAD = {
    "omega_q_hz": 0.005,
    "gamma_b1_hz": 0.005,
    "gamma_b0_hz": 0.01,
    "gamma_m_per_s": 0.05,
    "gamma_e_per_s": 0.05,
}

#: Joint scale on gamma*B1 and omega_q for lab-check.  The lab step count is
#: inversely proportional to it, so the window is +-2% around 25.
LAB_SCALE = (24.5, 25.5)

#: Factor on Gamma_m and Gamma_e in revival_sweeps' decoherence job, which
#: spans 2 ms: 20 times the paper rates over 1/20 of the CLI's default 40 ms.
DEPHASING_GAIN = 20.0

WORKLOADS = ("revival_sweeps", "lab_pulses", "dimension_scan")

#: Spin sizes (2I) of dimension_scan.  oat and husimi need a nonzero Iz^2
#: coefficient, which 2I = 1 does not have, so they skip it.
SCAN_SPINS = (1, 3, 7, 9, 25)
OAT_SPINS = (3, 7, 9, 25)
TACT_SPINS = (7, 25)
LAB_SPINS = (3, 7)


@dataclass(frozen=True)
class Job:
    """One CLI call: ``spincat <argv> --config <file> [--out <dir>]``."""

    name: str
    argv: tuple
    config: dict
    writes_output: bool = True

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def twice_i(self) -> int:
        return self.config["spin"]["twice_i"]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    params: dict
    jobs: tuple
    warmup: tuple

    def record(self) -> dict:
        """Everything the program is given, for the run report."""
        return {
            "workload": self.name,
            "seed": self.seed,
            "params": self.params,
            "jobs": [{"name": j.name, "argv": list(j.argv), "config": j.config} for j in self.jobs],
        }


def draw_params(seed: int) -> dict:
    rng = random.Random(seed)
    params = {k: v * (1.0 + rng.uniform(-SPREAD[k], SPREAD[k])) for k, v in PAPER.items()}
    params["lab_scale"] = rng.uniform(*LAB_SCALE)
    return params


def _config(p: dict, twice_i: int, params: dict | None = None) -> dict:
    return {
        "spin": {"twice_i": twice_i},
        "fields": {
            "gamma_b0_hz": p["gamma_b0_hz"],
            "gamma_b1_hz": p["gamma_b1_hz"],
            "drive_axis": "y",
        },
        "quadrupole": {"omega_q_hz": p["omega_q_hz"], "eta": 0.0, "euler_rad": [0.0, 0.0, 0.0]},
        "decoherence": {"gamma_m_per_s": p["gamma_m_per_s"], "gamma_e_per_s": p["gamma_e_per_s"]},
        "params": params or {},
    }


def _pair(p, name, argv, twice_i, params=None, warm_params=None, warm_argv=(), warm_output=True):
    """A job and its warm-up twin (same command and spin, tiny grids)."""
    job = Job(name, tuple(argv), _config(p, twice_i, params))
    warm = Job(
        "warmup-" + name,
        tuple(argv) + tuple(warm_argv),
        _config(p, twice_i, params if warm_params is None else warm_params),
        warm_output,
    )
    return job, warm


def _revival_sweeps(p):
    # two and a half revival periods, pi/omega_q each, on 1251 points
    window = {"t_max": 1.25 / p["omega_q_hz"], "n_points": 1251}
    return [
        # 1 us sampling, as the CLI default, over 2 ms rather than 40 ms, so
        # that a pass is short enough to repeat in a run; the rates are
        # amplified by the same factor, so the signal decays as far
        _pair(dict(p, gamma_m_per_s=DEPHASING_GAIN * p["gamma_m_per_s"],
                   gamma_e_per_s=DEPHASING_GAIN * p["gamma_e_per_s"]),
              "decoherence", ["decoherence"], 7,
              {"t_max": 2e-3, "n_points": 2001, "pulse_dt": 1e-6},
              {"t_max": 40e-6, "n_points": 5, "pulse_dt": 1e-4}),
        _pair(p, "ramsey-rotating", ["ramsey", "--phase-rule", "rotating"], 7,
              window, dict(window, n_points=5)),
        _pair(p, "ramsey-fixed", ["ramsey", "--phase-rule", "fixed"], 7,
              window, dict(window, n_points=5)),
        _pair(p, "virtual-phase", ["virtual-phase"], 7),
        _pair(p, "givens-collapse", ["givens", "--mode", "collapse"], 7),
    ]


def _lab_pulses(p):
    scale = repr(p["lab_scale"])
    return [
        _pair(p, f"lab-check-2I{n}", ["lab-check", "--scale", scale], n, warm_argv=["--dt", "1e-7"])
        for n in LAB_SPINS
    ]


def _dimension_scan(p):
    window = {"t_max": 1.25 / p["omega_q_hz"], "n_points": 1251}
    pairs = []
    for n in SCAN_SPINS:
        if n in OAT_SPINS:
            pairs.append(_pair(p, f"oat-2I{n}", ["oat"], n, window, dict(window, n_points=11)))
        pairs.append(_pair(p, f"givens-create-2I{n}", ["givens", "--mode", "create"], n))
        if n in OAT_SPINS:
            pairs.append(_pair(p, f"husimi-2I{n}", ["husimi"], n,
                               warm_argv=["--n-theta", "5", "--n-phi", "9"]))
    for n in TACT_SPINS:
        # with --out, tact writes four full-size Husimi tables; the husimi
        # warm-ups already cover that path
        pairs.append(_pair(p, f"tact-2I{n}", ["tact", "--eta", "0", "1"], n,
                           warm_params={"t_max": 1e-7, "n_steps": 10}, warm_output=False))
    spins = [str(n) for n in SCAN_SPINS]
    pairs.append(_pair(p, "coherence-scaling", ["coherence-scaling", "--spins", *spins], 7,
                       {"gamma_m": p["gamma_m_per_s"], "t_final": 1e-3, "dt": 5e-7},
                       {"gamma_m": p["gamma_m_per_s"], "t_final": 1e-5, "dt": 1e-6}))
    return pairs


_JOB_LISTS = {
    "revival_sweeps": _revival_sweeps,
    "lab_pulses": _lab_pulses,
    "dimension_scan": _dimension_scan,
}


def build(workload: str, seed: int) -> Workload:
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    p = draw_params(seed)
    pairs = _JOB_LISTS[workload](p)
    return Workload(
        name=workload,
        seed=seed,
        params=p,
        jobs=tuple(job for job, _ in pairs),
        warmup=tuple(warm for _, warm in pairs),
    )


def config_text(job: Job) -> str:
    return json.dumps(job.config, indent=1, sort_keys=True) + "\n"


def write_configs(workload: Workload, config_dir: str) -> dict:
    """Write one config file per job; returns job name -> path."""
    os.makedirs(config_dir, exist_ok=True)
    paths = {}
    for job in workload.jobs + workload.warmup:
        path = os.path.join(config_dir, job.name + ".json")
        with open(path, "w") as fh:
            fh.write(config_text(job))
        paths[job.name] = path
    return paths
