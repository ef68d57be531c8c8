"""Stochastic attention reference toolkit.

Sliding-window attention made global: permute the tokens, run the windowed
kernel, un-permute, plus the analytic and Monte-Carlo machinery to verify
every claim the construction rests on (coverage depth, connection
probability, estimator bias and variance, spectral mixing, small-world
structure, cost scaling).
"""

from .attention import (
    AttentionInputs,
    GateParams,
    LayerConfig,
    attention_backward,
    attention_forward,
    dual_path_layer,
    gated_fusion,
    rope_apply,
    sa_forward,
    swa_forward,
)
from .graphs import (
    CostReport,
    CoverageCurve,
    GraphMetrics,
    MixingReport,
    RoutingMode,
    SpectrumReport,
    circulant_spectrum,
    connection_probability_analytic,
    connection_probability_exhaustive,
    connection_probability_mc,
    connectome_depth_prediction,
    cost_model,
    expansion_lower_bound,
    graph_clustering,
    graph_path_length,
    layers_to_coverage,
    multilayer_mixing,
    per_seed_layers_to_coverage,
    permuted_transition_matrix,
    ring_lattice_clustering,
    simulate_reachability,
    smallworld_metrics,
    transition_matrix,
)
from .masks import (
    Convention,
    WindowSpec,
    build_stochastic_mask,
    build_window_mask,
    intersect_causal,
    mask_to_csv,
    mask_to_pgm,
    symmetrize,
    window_keys,
    window_neighbours,
)
from .numerics import FullyMaskedRowError, SeededRng, derive_seed, masked_row_softmax
from .permute import Permutation, permute_rows, sample_permutation
from .stats import (
    BiasReport,
    BVReport,
    VarianceReport,
    fusion_bv_decompose,
    sa_bias_mc,
    sa_variance_exact,
    sa_variance_mc,
)

__version__ = "0.1.0"
