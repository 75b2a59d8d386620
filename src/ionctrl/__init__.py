"""Trapped-ion qubit/oscillator control toolkit.

Exact sideband coupling matrix elements, Laguerre-zero Hilbert-space
truncation, coupling-graph and Lie-algebra controllability tests, pulse
propagation with an off-resonant oracle, and learning-control pulse
search up to two-ion entanglement.
"""

from .laguerre import laguerre, laguerre_curve, laguerre_zeros
from .fock import (
    BasisState,
    ConvergenceError,
    TruncatedBasis,
    displacement_element,
    displacement_exact,
)
from .model import (
    FieldColor,
    IonConfig,
    SystemModel,
    TrapConfig,
    build_control,
    build_drift,
    control_raising,
    coupling_strength,
    ldl_coupling,
)
from .graph import (
    CouplingGraph,
    GraphEdge,
    build_graph,
    closed_subspace,
    connected_components,
    is_transitively_connected,
)
from .liealg import LieAlgebraResult, controllability_verdict, dynamical_lie_algebra
from .dynamics import (
    BchDefectResult,
    PulseSchedule,
    Segment,
    Trajectory,
    bch_defect,
    law_eberly_sequence,
    leakage,
    propagate,
    propagate_timedep_oracle,
    subspace_population,
)
from .optimize import (
    GenerationRecord,
    Objective,
    PulseParams,
    SearchConfig,
    optimize,
    spin_fidelity,
    state_fidelity,
)

__version__ = "0.1.0"
