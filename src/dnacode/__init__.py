"""Binary DNA storage channel model, DNA-correcting code verifiers, and
small-instance code search.

Messages are sets of M length-L strands with distinct l-bit index
fields.  The channel emits K reads per strand, at most floor(tau*K) of
them corrupted, each within e_i index-bit and e_d data-bit flips.  A
code is DNA-correcting when the error balls of its codewords are
pairwise disjoint; this package decides that exactly where the regime
allows, answers Unknown where it does not, and ships a brute-force
oracle, a channel sampler, and clique-based code search for everything
else.
"""

from .channel import (
    ChannelSample,
    in_ball,
    oracle_balls_intersect,
    read_neighborhood,
    sample_ball,
)
from .codec import (
    Answer,
    IntersectionResult,
    Regime,
    RegimeTag,
    Verdict,
    VerdictKind,
    Witness,
    balls_intersect,
    budget_bound,
    classify_regime,
    is_dna_correcting,
    is_dna_correcting_ed0,
)
from .errors import (
    DnaCodeError,
    DuplicateCodeword,
    DuplicateIndex,
    DuplicateStrand,
    EdNonZero,
    FileFormatError,
    ParamMismatch,
    ResourceCapExceeded,
    ShapeMismatch,
    SizeMismatch,
    SpaceTooLarge,
    TooFewCodewords,
    TooLargeForExact,
    ValidationError,
    WrongCount,
    WrongLength,
    WrongPoolSize,
)
from .matching import (
    BipartiteGraph,
    HallViolator,
    PerfectMatching,
    assignment_feasible,
    bijection_within_or_violator,
    bottleneck_bijection,
    perfect_matching_or_violator,
)
from .metrics import (
    DnaDistance,
    PairDistance,
    dna_distance,
    min_dna_distance,
    pair_leq,
    split_distance,
)
from .model import (
    DEFAULT_SPACE_CAP,
    MAX_STRAND_LEN,
    Message,
    ReadPool,
    Strand,
    SystemParams,
    bits_from_string,
    bits_to_string,
    enumerate_space,
    has_distinct_data,
    in_restricted_space,
    space_size,
    validate_message,
)
from .search import (
    CompatibilityGraph,
    SearchRow,
    Strategy,
    build_graph,
    max_code,
    run_search,
)

__version__ = "0.1.0"
