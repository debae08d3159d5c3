"""Command-line interface: run named scenarios and emit CSV tables plus a
run manifest.  All frequency inputs are plain Hz (converted to angular
frequencies internally); decoherence rates are 1/s."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from ._version import __version__
from .dynamics import LAB_FRAME_DT, IntegrationError
from .observables import husimi_q, save_coherence_table, save_husimi, save_report, save_size_series
from .scenarios import (
    ScenarioConfig,
    _checked,
    _twisted,
    _twisting,
    coherence_scaling,
    config_from_dict,
    decoherence_sweep,
    givens_baseline,
    multitone_lab_validation,
    oat_free_evolution,
    paper_config,
    ramsey_cat_protocol,
    tact_oat_comparison,
    virtual_phase_cat,
    write_manifest,
)
from .spin import coherent_state

_TWO_PI = 2 * np.pi

#: The rule of each numeric flag, by its namespace entry: the ``kind`` and
#: ``bound`` of :func:`scenarios._checked`.  A list flag holds each value
#: to the rule.
_FLAG_RULES = {
    "dt": ("real", "> 0"),
    "scale": ("real", "> 0"),
    "time_fraction": ("real", "> 0"),
    "n_theta": ("count", 2),
    "n_phi": ("count", 2),
    "spins": ("count", 1),
    "eta": ("real", "in [0, 1]"),
    "b0_hz": ("real", ">= 0"),
    "gamma_m": ("real", ">= 0"),
    "gamma_e": ("real", ">= 0"),
}


def _check_flags(args) -> None:
    """Hold every numeric flag given to its rule in ``_FLAG_RULES``, before
    any case runs; a bad value is an error naming the flag and the value."""
    for dest, rule in _FLAG_RULES.items():
        values = getattr(args, dest, None)
        if values is None:  # not a flag of this command, or a list flag not given
            continue
        for value in values if isinstance(values, list) else [values]:
            _checked(value, "--" + dest.replace("_", "-"), *rule)


def _require_distinct_names(flag: str, values, text) -> None:
    """Reject a list of flag values of which two give one output name
    ``text(value)``, before any case runs: the second would overwrite the
    first's table."""
    names = [text(value) for value in values or ()]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(
                f"two {flag} values map to the output name {name!r}, so one case "
                "would overwrite the other's table"
            )


def _load_config(args) -> ScenarioConfig:
    if not args.config:
        return paper_config()
    with open(args.config) as fh:
        return config_from_dict(json.load(fh))


def _cmd_oat(cfg, args, out) -> None:
    series = oat_free_evolution(cfg)
    print(
        f"oat: peak N_eff = {series.peak:.4f} at t = {series.peak_time * 1e6:.3f} us; "
        f"final N_eff = {series.values[-1]:.4f}"
    )
    if out:
        save_size_series(series, os.path.join(out, "oat_neff.csv"))


def _cmd_ramsey(cfg, args, out) -> None:
    series = ramsey_cat_protocol(cfg, phase_rule=args.phase_rule)
    print(
        f"ramsey ({args.phase_rule}): peak N_eff = {series.peak:.4f} "
        f"at T = {series.peak_time * 1e6:.3f} us over {len(series.times)} points"
    )
    if out:
        save_size_series(
            series,
            os.path.join(out, f"ramsey_neff_{args.phase_rule}.csv"),
            header_extra=f"phase_rule: {args.phase_rule}",
        )


def _cmd_virtual_phase(cfg, args, out) -> None:
    result = virtual_phase_cat(cfg)
    # + 0.0 prints a zero increment as 0.0, not -0.0
    print(
        f"virtual-phase: fidelity vs free-evolution cat = {result.fidelity:.9f}; "
        f"phase increments (rad) = {(np.round(result.phase_increments, 6) + 0.0).tolist()}"
    )
    if out:
        report = {
            "fidelity": result.fidelity,
            "phase_increments_rad": result.phase_increments.tolist(),
            "final_populations": (np.abs(result.final_state) ** 2).tolist(),
        }
        save_report(report, os.path.join(out, "virtual_phase_report.json"))
        save_husimi(
            husimi_q(result.final_state, cfg.spin),
            os.path.join(out, "virtual_phase_husimi.csv"),
        )


def _cmd_givens(cfg, args, out) -> None:
    result = givens_baseline(cfg, mode=args.mode)
    print(
        f"givens ({args.mode}): {len(result.schedule.segments)} pulses, "
        f"total {result.schedule.t_end * 1e3:.3f} ms "
        f"(OAT period {result.oat_period * 1e6:.2f} us); "
        f"edge populations = ({result.edge_populations[0]:.6f}, "
        f"{result.edge_populations[1]:.6f}); "
        f"fidelity to |I,-I> = {result.end_fidelity:.6f}"
    )
    if out:
        report = {
            "mode": result.mode,
            "n_pulses": len(result.schedule.segments),
            "total_duration_s": result.schedule.t_end,
            "oat_period_s": result.oat_period if np.isfinite(result.oat_period) else None,
            "edge_populations": list(result.edge_populations),
            "fidelity_to_bottom": result.end_fidelity,
        }
        save_report(report, os.path.join(out, f"givens_{args.mode}_report.json"))


def _cmd_decoherence(cfg, args, out) -> None:
    _require_distinct_names("--gamma-m", args.gamma_m, lambda g: f"gm{g:g}")
    _require_distinct_names("--gamma-e", args.gamma_e, lambda g: f"ge{g:g}")
    for res in decoherence_sweep(cfg, args.gamma_m, args.gamma_e):
        print(
            f"decoherence Gamma_m={res.gamma_m}/s Gamma_e={res.gamma_e}/s: "
            f"first-peak N_eff = {res.series.peak:.4f}, "
            f"final N_eff = {res.series.values[-1]:.4f}"
        )
        if out:
            name = f"decoherence_gm{res.gamma_m:g}_ge{res.gamma_e:g}.csv"
            save_size_series(
                res.series,
                os.path.join(out, name),
                header_extra=f"gamma_m_per_s: {res.gamma_m}, gamma_e_per_s: {res.gamma_e}",
            )


def _cmd_coherence_scaling(cfg, args, out) -> None:
    rows = coherence_scaling(cfg, args.spins)
    for row in rows:
        print(
            f"coherence-scaling 2I={row.twice_i} (d={row.dimension}): "
            f"|rho_I,-I| = {row.coherence:.6e} (analytic {row.analytic:.6e})"
        )
    if out:
        save_coherence_table(rows, os.path.join(out, "coherence_vs_dimension.csv"))


def _cmd_tact(cfg, args, out) -> None:
    b0_list = [b * _TWO_PI for b in args.b0_hz] if args.b0_hz else None
    _require_distinct_names("--eta", args.eta, lambda eta: f"eta{eta:g}")
    _require_distinct_names("--b0-hz", b0_list, lambda b0: f"b0{b0 / _TWO_PI:g}Hz")
    results = tact_oat_comparison(
        cfg,
        eta_list=args.eta,
        b0_list=b0_list,
        include_corner=args.corner,
        with_husimi=bool(out),
    )
    for res in results:
        label = f"eta{res.eta:g}_b0{res.gamma_b0 / _TWO_PI:g}Hz"
        if res.corner:
            label += "_corner"
        print(
            f"tact {label}: max N_eff({res.series.operator_tag}) = {res.series.peak:.4f} "
            f"at t = {res.series.peak_time * 1e6:.3f} us"
        )
        if out:
            save_size_series(
                res.series,
                os.path.join(out, f"tact_{label}.csv"),
                header_extra=f"eta: {res.eta}, gamma_b0_hz: {res.gamma_b0 / _TWO_PI}",
            )
            if res.husimi is not None:
                save_husimi(res.husimi, os.path.join(out, f"tact_{label}_husimi.csv"))


def _cmd_husimi(cfg, args, out) -> None:
    spin = cfg.spin
    omega = _twisting(cfg)
    t = args.time_fraction * np.pi / abs(omega)
    state = _twisted(coherent_state(spin, np.pi / 2, 0.0), omega, t, spin)
    grid = husimi_q(state, spin, n_theta=args.n_theta, n_phi=args.n_phi)
    print(
        f"husimi: OAT state at t = {t * 1e6:.3f} us "
        f"({args.time_fraction} of a revival period); sphere integral = "
        f"{grid.integral():.6f}"
    )
    if out:
        save_husimi(
            grid,
            os.path.join(out, f"husimi_f{args.time_fraction:g}.csv"),
            header_extra=f"oat_time_s: {t}",
        )


def _cmd_lab_check(cfg, args, out) -> None:
    result = multitone_lab_validation(cfg, scale=args.scale, dt=args.dt)
    print(
        f"lab-check: scale = {result.scale:g}, {result.n_steps} steps of "
        f"{result.dt * 1e9:.3f} ns; infidelity vs rotating-frame model = "
        f"{result.infidelity_vs_model:.3e}, vs ideal coherent state = "
        f"{result.infidelity_vs_ideal:.3e}"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spincat`` parser, built once per process.  Parsing leaves it
    unchanged, so each :func:`main` call gets a fresh namespace of defaults,
    and the subcommand functions look up their writers when they run."""
    parser = argparse.ArgumentParser(
        prog="spincat",
        description="Spin-qudit cat-state dynamics scenarios",
    )
    parser.add_argument("--version", action="version", version=f"spincat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file mirroring ScenarioConfig")
        p.add_argument("--out", help="output directory for tables and manifest")

    p = sub.add_parser("oat", help="free-evolution twisting: N_eff(t)")
    common(p)
    p.set_defaults(func=_cmd_oat)

    p = sub.add_parser("ramsey", help="two-pulse protocol: N_eff(T)")
    common(p)
    p.add_argument("--phase-rule", choices=["fixed", "rotating"], default="rotating")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("virtual-phase", help="cat by phase modulation only")
    common(p)
    p.set_defaults(func=_cmd_virtual_phase)

    p = sub.add_parser("givens", help="sequential Givens-rotation baseline")
    common(p)
    p.add_argument("--mode", choices=["create", "collapse"], default="collapse")
    p.set_defaults(func=_cmd_givens)

    p = sub.add_parser("decoherence", help="collapse/revivals under dephasing")
    common(p)
    p.add_argument("--gamma-m", type=float, nargs="+", help="magnetic rates (1/s)")
    p.add_argument("--gamma-e", type=float, nargs="+", help="electric rates (1/s)")
    p.set_defaults(func=_cmd_decoherence)

    p = sub.add_parser("coherence-scaling", help="cat coherence vs dimension")
    common(p)
    p.add_argument("--spins", type=int, nargs="+", help="twice-I values, e.g. 1 3 5 7")
    p.set_defaults(func=_cmd_coherence_scaling)

    p = sub.add_parser("tact", help="twisting conversion: eta and B0 sweep")
    common(p)
    p.add_argument("--eta", type=float, nargs="+", help="asymmetry values")
    p.add_argument("--b0-hz", type=float, nargs="+", help="gamma*B0 values in Hz")
    p.add_argument("--corner", action="store_true", help="add the eta=0, mu=pi/2 case")
    p.set_defaults(func=_cmd_tact)

    p = sub.add_parser("husimi", help="Husimi Q table of the OAT state")
    common(p)
    p.add_argument("--time-fraction", type=float, default=0.5,
                   help="evolution time as a fraction of the revival period")
    p.add_argument("--n-theta", type=int, default=181)
    p.add_argument("--n-phi", type=int, default=361)
    p.set_defaults(func=_cmd_husimi)

    p = sub.add_parser("lab-check", help="full-model validation of the multi-tone rotation")
    common(p)
    p.add_argument("--scale", type=float, default=20.0,
                   help="joint scale factor on gamma*B1 and omega_q")
    p.add_argument("--dt", type=float, default=LAB_FRAME_DT, help="integrator step (s)")
    p.set_defaults(func=_cmd_lab_check)

    return parser


#: Namespace entries that are not subcommand flags.
_NOT_EXTRAS = ("command", "func", "config", "out")


def main(argv=None) -> int:
    """Run one subcommand.  The numeric flags are checked first.  With
    ``--out`` the output directory is created before the scenario runs, and
    a manifest follows its tables: the config echo, the wall time and, under
    ``extras``, every other flag, so the run replays from it."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        cfg = _load_config(args)
        t0 = time.time()
        out = args.out
        if out:
            os.makedirs(out, exist_ok=True)
        args.func(cfg, args, out)
        if out:
            extras = {k: v for k, v in vars(args).items() if k not in _NOT_EXTRAS}
            write_manifest(out, args.command, cfg, time.time() - t0, extras)
        return 0
    except (ValueError, IntegrationError, OSError) as exc:
        print(f"spincat: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"spincat: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
