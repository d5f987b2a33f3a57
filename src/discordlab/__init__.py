"""Two-qubit quantum-correlation laboratory.

Computes geometric quantum discord under the Hilbert-Schmidt norm (d2)
and the trace norm (d1), plus entanglement negativity, for two-qubit
states, and follows these measures while one atom undergoes spontaneous
emission.  Every value is exact: d2 and negativity come from small
eigenproblems, d1 from a closed form on the X-state class and, for
every other state, from the trace-norm objective on the few closed-form
axes where its minimum lies (`d1_exact`).  `measure_batch` computes all
three for a whole stack of states in one pass.  Deterministic
brute-force oracles over the measurement manifold back each of them
independently.
"""

from .dynamics import (
    EmissionChannel,
    InvalidTime,
    StepTooLarge,
    apply_channel,
    evolve_states,
    integrate,
    lindblad_rhs,
)
from .families import (
    FamilyParams,
    ParamOutOfRange,
    RegimeReport,
    TimeSeries,
    W_CRITICAL_D1,
    W_CRITICAL_D2,
    d1_timeseries_A,
    d1_timeseries_B,
    d2_timeseries_A,
    d2_timeseries_B,
    find_critical_w,
    make_state,
    regime,
    s_max,
)
from .linalg import (
    NonHermitianInput,
    SizeMismatch,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    trace_norm,
)
from .measures import (
    d1_closed_x,
    d1_exact,
    d1_oracle,
    d1_x_kernel,
    d1_x_with_method,
    d2_closed,
    d2_oracle,
    d2_x_kernel,
    is_degenerate_x,
    measure_batch,
    negativity,
)
from .states import (
    BlochDecomposition,
    NotHermitian,
    NotPositive,
    NotXShaped,
    StateError,
    StateFileError,
    TraceNotOne,
    XState,
    bloch,
    from_bloch,
    from_x_state,
    read_state_file,
    sample_random_state,
    to_x_state,
    validate,
    x_fields,
    write_state_file,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
