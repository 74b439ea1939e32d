"""Semi-quantitative group testing codes with non-uniform quantization
thresholds: sequence construction, code assembly, and zero-error decoding."""

from .channel import (
    TestOutcome,
    inject_exhaustive,
    inject_explicit,
    inject_random,
    support_signature,
    syndrome,
)
from .codebook import (
    PERMISSIVE,
    STRICT,
    SqgtCode,
    build,
    code_from_config,
    feasibility_report,
    load_code,
    pair_sequence,
    save_code,
    verify_sq_separable,
)
from .campaign import CampaignSummary, simulate_campaign
from .decoders import (
    DecodedResult,
    decode,
    oracle_decode,
    recover_support,
    select_witness_coords,
)
from .disjunct import (
    BinaryDisjunctCode,
    identity_code,
    kautz_singleton,
    random_code,
    replicated_identity,
    user_code,
    verify_disjunct,
)
from .errors import (
    BudgetExceeded,
    CorruptCode,
    CorruptSequence,
    DecodingFailure,
    HeadroomError,
    InfeasibleThresholds,
    InvalidBase,
    InvalidBin,
    InvalidInput,
    OutOfRange,
    ParameterError,
    SqgtError,
    UnsupportedKind,
)
from .quantization import (
    Thresholds,
    bin_bounds,
    quantize,
    uniform_thresholds,
    unit_thresholds,
)
from .sequences import (
    H_SUPERINCREASING,
    QUANTIZED_BH,
    SQLO_L,
    SQLO_S,
    STRONG_LEX,
    SUBSET_SUM_DISTINCT,
    BaseSequence,
    MultiplierSequence,
    base_recursive_superincreasing,
    brute_force_subset_sum,
    check_base,
    check_sequence,
    gamma_bound,
    greedy_generate,
    greedy_generate_base,
    knapsack_solve,
    scaled_construction,
    strong_lex_base,
    subset_sums,
    verified_sequence,
)

__version__ = "0.1.0"
