"""spincat: spin-qudit dynamics simulator for quadrupolar one-axis twisting,
multi-tone pulse control and nuclear-spin cat-state detection."""

from ._version import __version__
from .spin import (
    SpinQuantum,
    SpinOperators,
    spin_operators,
    eigenstate,
    coherent_state,
    fidelity,
)
from .hamiltonian import (
    QuadrupoleSpec,
    FieldSpec,
    EnergyLadder,
    principal_axis_operators,
    quadrupole_hamiltonian,
    static_hamiltonian,
    energy_ladder,
    effective_oat_strength,
)
from .control import (
    ToneSpec,
    PulseSegment,
    PulseSchedule,
    RotationParams,
    rotation_params,
    cat_schedule,
    rotating_frame_hamiltonian,
    segment_rotating_hamiltonian,
    givens_schedule,
)
from .dynamics import (
    IntegrationError,
    DecoherenceSpec,
    TimeGrid,
    Trajectory,
    Drive,
    propagator,
    evolve_unitary,
    evolve_lindblad,
)
from .observables import (
    HusimiGrid,
    SizeSeries,
    expectation_and_variance,
    effective_size,
    husimi_q,
    cat_coherence,
    save_size_series,
    save_husimi,
)
from .scenarios import (
    ScenarioConfig,
    paper_config,
    config_to_dict,
    config_from_dict,
    oat_free_evolution,
    ramsey_cat_protocol,
    virtual_phase_cat,
    givens_baseline,
    decoherence_sweep,
    coherence_scaling,
    tact_oat_comparison,
    multitone_lab_validation,
    write_manifest,
)
