"""Classical two-mode field simulator for pseudorandom-phase quantum analogies.

The package models optical two-mode fields phase-modulated with
pseudorandom phase sequences, routes them through gate arrays, reads the
results back out by quadrature demodulation, and reconstructs simulated
multi-qubit states from the resulting mode-status matrices.
"""
from types import ModuleType as _ModuleType

from .errors import (
    SimulationError,
    DegenerateStateError,
    NonPrimitivePolynomialError,
    DimensionMismatchError,
    PeriodUnusableError,
    UnrepresentableStateError,
    StateTooLargeError,
    TableTooLargeError,
    FormatError,
)
from .sequences import (
    PI,
    HALF_PI,
    PRIMITIVE_POLYNOMIALS,
    PpsSet,
    generate_m_sequence,
    build_pps_set,
    correlate,
    balance_sum,
    sequence_product,
)
from .fields import (
    MODE0,
    MODE1,
    ClassicalField,
    make_single_pps_field,
    canonical_inputs,
    modulate,
)
from .demod import (
    DEFAULT_THRESHOLD,
    ModeStatus,
    ModeStatusMatrix,
    SignGrid,
    parse_cell,
    format_cell,
    demodulate_mode,
    quantize,
    mode_status,
    mode_status_matrix,
)
from .gates import (
    GATE_KINDS,
    Input,
    Output,
    Split,
    ModeGate,
    Unitary,
    PhaseFlip,
    Combine,
    GateArray,
    apply_mode_gate,
    w_array,
)
from .placement import (
    BELL_VARIANTS,
    CompiledArray,
    PlacementTable,
    compile_placement,
    product_array,
    bell_array,
    ghz_array,
)
from .reconstruct import (
    SimulatedState,
    usable_rotations,
    reconstruct,
    sample_measurement,
)
from .symbolic import (
    SymbolicField,
    to_waveform,
    symbolic_demodulate,
)
from .algorithms import (
    TYPICAL_KINDS,
    ShorInstance,
    ShorResult,
    GroverDatabase,
    GroverResult,
    TypicalState,
    shor_encode,
    shor_factor,
    period_from_state,
    grover_symbolic,
    grover_encode,
    grover_search,
    typical_state,
    builder_for,
)
from .fileformats import (
    save_pps_set,
    load_pps_set,
    save_fields,
    load_fields,
    save_matrix,
    load_matrix,
    load_placement,
    save_state,
    load_state,
    save_circuit,
    load_circuit,
    save_symbolic_field,
    load_symbolic_field,
    save_grover_db,
    load_grover_db,
)
from .bench import BenchReport, run_benchmarks, format_reports

__version__ = "0.1.0"

# the imports above are the public names: every one not private and not a module
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
