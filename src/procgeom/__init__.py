"""procgeom: Hilbert-space geometry for stationary ergodic finite-valued processes.

Simplex algebra on strictly positive probability vectors, probabilistic
finite-state automata as process encoders, epsilon-synchronization and
reset words, the vector space and inner product of strictly positive
processes, and empirical angle estimation from raw symbol streams.
"""

from .errors import (
    AlphabetMismatch,
    DegenerateGeodesic,
    DepthExceeded,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidPfsa,
    MultipleRecurrentClasses,
    NonPositiveEntry,
    NotErgodic,
    NotOrthogonal,
    Overflow,
    PfsaFormatError,
    ProcgeomError,
    StreamTooShort,
    UnknownKey,
    ZeroMass,
    ZeroNorm,
)
from .experiment import DEFAULT_SCALES, ExperimentConfig, ExperimentReport, run_noise_experiment
from .pfsa import (
    Pfsa,
    ValidationReport,
    belief_from_string,
    belief_update,
    canonicalize,
    format_pfsa,
    generate_sequence,
    matrices,
    minimal_closed_restriction,
    minimize,
    parse_pfsa,
    read_pfsa,
    require_valid,
    sink_sccs,
    stationary_distribution,
    structurally_equal,
    symbolic_derivative,
    transition_matrix,
    validate,
    word_probability,
    write_pfsa,
)
from .process import (
    AngleEstimate,
    InnerEstimate,
    ProcessHandle,
    angle,
    angle_mc_estimate,
    as_process,
    fdd_distance,
    inner_exact,
    inner_mc,
    process_norm,
    scale_process,
    sum_processes,
    zero_process,
)
from .simplex import (
    ProbVec,
    from_log_ratios,
    geodesic_intersection,
    geodesic_point,
    log_inner,
    log_ratios,
    make_pvec,
    pdist,
    pnorm,
    pscale,
    psum,
    smooth,
    uniform_pvec,
)
from .streams import (
    DerivativeTable,
    SymbolStream,
    estimate_derivatives,
    format_stream,
    read_stream,
    stream_angle,
    stream_from_model,
    stream_inner,
    stream_stats,
    table_angle,
    table_inner,
    table_norm,
    write_stream,
)
from .sync import (
    SyncResult,
    epsilon_synchronize,
    joint_epsilon_synchronize,
    reset_word,
)

__version__ = "0.1.0"
