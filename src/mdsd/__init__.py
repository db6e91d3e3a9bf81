"""Optimal acceptance rates and verification algorithms for multi-draft
speculative decoding."""

from .alpha import (
    ScanResult,
    alpha_scan,
    alpha_single_draft,
    ratio_order,
    residual_table,
)
from .dists import (
    Dist,
    softmax_temp,
    top_k_desc,
    tv_distance,
)
from .drafts import (
    DraftKind,
    DraftScheme,
    iter_support,
    sample_tuples,
    tuple_prob,
)
from .mc import McReport, estimate_alpha
from .oracle import (
    RationalScheme,
    alpha_maxflow,
    alpha_subset_exact,
    q_sequential_exact,
    rational_dist,
    rrs_wo_conditional,
    tuple_probs_exact,
    verifier_marginal_exact,
)
from .verify import (
    KseqKernel,
    KseqParams,
    RrsWKernel,
    RrsWoKernel,
    kseq_solve,
    make_kernel,
    rrs_rate_exact,
    supports,
)

__version__ = "0.1.0"
