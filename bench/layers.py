"""Layer timings of spincat by spin size, written to a JSON file.

Usage, from the repository root:

    python3 bench/layers.py --out BENCH_<n>.json [--src DIR]

For each 2I in ``TWICE_I`` it times, in this process:

- ``spin_operators``: the operator set of the spin;
- ``propagator``: exp(-i H t) of the first cat pulse over its duration;
- ``evolve_lindblad_step``: the first cat pulse as ``spincat ramsey`` takes
  it, one exact Lindblad step from |I, I> at the paper rates;
- ``cat_signal``: the gap sweep of ``spincat ramsey`` (``scenarios._cat_signal``)
  over ``CAT_GAPS`` gaps spanning two and a half revival periods, recorded
  per call and as gaps/s;
- ``step_map_1ns`` and ``step_map_100ns``: the step-map coefficients of the
  lab-check drive (``dynamics._step_map_coefficients``) at 1 ns and 100 ns;
- ``evolve_unitary_drive``: ``DRIVE_STEPS`` 1 ns steps of the lab-check
  pulse, as ``spincat lab-check`` runs it, from |I, I>;
- ``husimi_q`` and ``save_husimi``: the Husimi table of a coherent state on
  the default 181 x 361 grid, computed, and written to a temporary file.

Each layer and spin is one case.  A sample times enough back-to-back calls
to last ``MIN_SAMPLE_S`` and records the time per call; the cases take turns
within a round, in reverse order on odd rounds, so that a slow stretch of
the host is spread over all of them.  The file holds each case's median and
quartiles over ``REPEATS`` rounds.  It also times ``COLD_IMPORTS`` fresh
interpreters that import ``spincat.cli``: the import alone, spawn to exit,
the child's peak RSS and whether scipy was loaded.  ``--src`` points at the
``src`` directory of the tree to measure (default: the one next to this
script), so two trees are measured by one script.

BLAS runs at one thread unless the thread variables are set; the file's
environment block records them.  Standard library and numpy only; nothing
gates on the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

# BLAS runs single-threaded unless the caller sets the thread variables, as
# in the test suite and perfbench: at these sizes a second thread costs more
# in hand-off than it computes, and makes the small layers swing by up to
# an order of magnitude between runs.  Set before numpy is imported; the
# cold-import children inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TWICE_I = (1, 3, 7, 9, 25)
SCALE = 20.0  # lab-check's default joint scale of gamma*B1 and omega_q
DRIVE_STEPS = 10_000
CAT_GAPS = 1251
MIN_SAMPLE_S = 2e-3
REPEATS = 21
COLD_IMPORTS = 11

_IMPORT_PROBE = """
import resource, sys, time
t0 = time.perf_counter()
import spincat.cli
t1 = time.perf_counter()
print(t1 - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "scipy" in sys.modules)
"""


def _cases(scratch: str):
    """(layer, 2I, zero-argument callable, (unit, count) per call or None)
    per case; ``save_husimi`` writes into the directory ``scratch``."""
    from spincat.control import cat_schedule, rotation_duration
    from spincat.dynamics import (
        TimeGrid, _step_map_coefficients, evolve_lindblad, evolve_unitary, propagator,
    )
    from spincat.hamiltonian import static_hamiltonian
    from spincat.observables import husimi_q, save_husimi
    from spincat.scenarios import _cat_signal, _lab_hamiltonian, _ladder, _pulse_pair, paper_config
    from spincat.spin import coherent_state, eigenstate, spin_operators

    cases = []
    for twice_i in TWICE_I:
        cfg = paper_config(twice_i=twice_i)
        spin = cfg.spin
        cases.append(("spin_operators", twice_i, lambda s=spin: spin_operators(s), None))
        t_half = rotation_duration(spin, cfg.fields.gamma_b1, np.pi / 2)
        omega_ref = cfg.fields.gamma_b0
        h1, _, _ = _pulse_pair(cfg, _ladder(cfg), t_half, omega_ref)
        cases.append(("propagator", twice_i, lambda h=h1, t=t_half: propagator(h, t), None))
        psi0 = eigenstate(spin, spin.i)
        rho0 = np.outer(psi0, psi0.conj())
        pulse = TimeGrid(0.0, t_half, dt=t_half)
        cases.append((
            "evolve_lindblad_step", twice_i,
            lambda h=h1, r=rho0, g=pulse, dec=cfg.decoherence: evolve_lindblad(h, r, dec, g), None,
        ))
        gaps = np.linspace(0.0, 1.25 / (cfg.quad.omega_q / (2 * np.pi)), CAT_GAPS)
        cases.append((
            "cat_signal", twice_i,
            lambda c=cfg, w=omega_ref, t=gaps: _cat_signal(c, c.decoherence, w, t),
            ("gaps", CAT_GAPS),
        ))

        # the lab-check drive, as multitone_lab_validation builds it
        fields = replace(cfg.fields, gamma_b1=cfg.fields.gamma_b1 * SCALE)
        quad = replace(cfg.quad, omega_q=cfg.quad.omega_q * SCALE)
        ladder = _ladder(replace(cfg, fields=fields, quad=quad))
        t_pulse = rotation_duration(spin, fields.gamma_b1, np.pi / 2)
        seg = cat_schedule(ladder.transition_freqs, 0.0, 0.0, t_pulse).segments[0]
        drive = _lab_hamiltonian(static_hamiltonian(fields, quad, spin), fields, spin, seg)
        h0 = np.asarray(drive.h0, dtype=complex)
        x = np.asarray(drive.x, dtype=complex)
        for label, dt in (("step_map_1ns", 1e-9), ("step_map_100ns", 1e-7)):
            cases.append((label, twice_i, lambda dt=dt, h0=h0, x=x: _step_map_coefficients(h0, x, dt), None))
        grid = TimeGrid(0.0, DRIVE_STEPS * 1e-9, dt=1e-9)
        cases.append((
            "evolve_unitary_drive", twice_i,
            lambda d=drive, p=psi0, g=grid: evolve_unitary(d, p, g), ("steps", grid.n_steps),
        ))
        state = coherent_state(spin, 1.1, 0.4)
        cases.append(("husimi_q", twice_i, lambda p=state, s=spin: husimi_q(p, s), None))
        table = husimi_q(state, spin)
        path = os.path.join(scratch, f"husimi_2I{twice_i}.csv")
        cases.append(("save_husimi", twice_i, lambda q=table, f=path: save_husimi(q, f), None))
    return cases


def _calls_per_sample(fn) -> int:
    """Back-to-back calls of ``fn`` that take at least ``MIN_SAMPLE_S``."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_SAMPLE_S:
            return n
        n *= 2


def time_layers(scratch: str) -> dict:
    cases = _cases(scratch)
    calls = [_calls_per_sample(fn) for _, _, fn, _ in cases]  # also warms each case up
    samples = [[] for _ in cases]
    for r in range(REPEATS):
        order = range(len(cases)) if r % 2 == 0 else reversed(range(len(cases)))
        for i in order:
            fn = cases[i][2]
            t0 = time.perf_counter()
            for _ in range(calls[i]):
                fn()
            samples[i].append((time.perf_counter() - t0) / calls[i])
    layers = {}
    for (layer, twice_i, _, units), n, xs in zip(cases, calls, samples):
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        row = {"median_s": median, "q1_s": q1, "q3_s": q3, "calls_per_sample": n}
        if units:
            unit, count = units
            row.update({unit: count, f"{unit}_per_s": count / median})
        layers.setdefault(layer, {})[str(twice_i)] = row
    return layers


def cold_import(src: str, count: int) -> dict:
    """Medians over ``count`` fresh interpreters that import spincat.cli."""
    env = {**os.environ, "PYTHONPATH": src}
    imports, walls, rss, scipy_loaded = [], [], [], set()
    for _ in range(count):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        walls.append(time.perf_counter() - t0)
        imports.append(float(out[0]))
        rss.append(float(out[1]))
        scipy_loaded.add(out[2] == "True")
    if len(scipy_loaded) != 1:
        raise RuntimeError("scipy was loaded by some imports and not by others")
    return {
        "interpreters": count,
        "import_s": statistics.median(imports),
        "spawn_to_exit_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "scipy_loaded": scipy_loaded.pop(),
    }


def environment(src: str) -> dict:
    """What a run manifest records (spincat and numpy versions, the BLAS
    thread variables), with the host and a digest of the measured sources."""
    import spincat
    from spincat.scenarios import _BLAS_THREAD_VARIABLES

    digest = hashlib.sha256()
    pkg = os.path.join(src, "spincat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    uname = platform.uname()
    return {
        "version": spincat.__version__,
        "numpy_version": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "platform": f"{uname.system} {uname.release} {uname.machine}",
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="src directory of the tree to measure")
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory() as scratch:
        doc = {
            "script": "bench/layers.py",
            "repeats": REPEATS,
            "twice_i": list(TWICE_I),
            "lab_scale": SCALE,
            "cat_gaps": CAT_GAPS,
            "cold_import": cold_import(src, COLD_IMPORTS),
            "layers": time_layers(scratch),
            "environment": environment(src),
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for layer, rows in doc["layers"].items():
        cells = "  ".join(f"2I={k}: {v['median_s'] * 1e3:.3g} ms" for k, v in rows.items())
        print(f"{layer:22s} {cells}")
    ci = doc["cold_import"]
    print(f"{'import spincat.cli':22s} {ci['import_s']:.3f} s, {ci['peak_rss_mb']:.1f} MiB, "
          f"scipy loaded: {ci['scipy_loaded']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
