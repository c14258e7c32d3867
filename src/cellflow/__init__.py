"""cellflow: inferring the 2-cell structure of a graph from edge flows.

Given a graph and observed edge flows, find a small set of 2-cells (simple
cycles) whose curl space explains as much of the flows as possible, i.e.
minimizes the Frobenius norm of the harmonic remainder.  The main
algorithm (MFCI) factors the harmonic flows at low rank and discretizes
factor columns into cycles; spanning-tree (SPH) and random baselines and a
synthetic benchmark harness round out the package.
"""

from .complexes import (
    CellBoundary,
    CellComplex,
    Forest,
    InvalidCell,
    MissingEdge,
    NoPath,
    NotACycle,
    OrientedGraph,
    RepeatedNode,
    TooShort,
    add_cells,
    boundary_from_edge_set,
    build_incidence,
    check_cell,
    tree_cycle,
    validate_cycle,
)
from .hodge import (
    ApproxUpdateResult,
    LeastSquaresResult,
    approx_harmonic_update,
    harmonic_projection,
    hodge_decompose,
    least_squares,
    loss,
    remove_gradient,
)
from .factorize import (
    DegenerateInput,
    Factorization,
    RankTooLarge,
    column_scores,
    fast_ica,
    select_columns,
    truncated_svd,
)
from .mfci import (
    GraphIsForest,
    InferenceConfig,
    InferenceTrace,
    IterationRecord,
    WalkFailed,
    candidate_search,
    discretize_deterministic,
    discretize_random_walk,
    evaluate_and_select,
    infer_mfci,
)
from .baselines import (
    SphConfig,
    infer_random,
    infer_sph,
    sph_candidates,
)
from .synth import (
    GenerationFailed,
    SynthConfig,
    random_complex,
    reference_loss,
    sample_flows,
    save_dataset,
)
from .harness import (
    DatasetPaths,
    DegenerateReference,
    ExperimentConfig,
    TraceRecord,
    load_dataset,
    relative_performance,
    run_experiment,
    write_trace,
)

__version__ = "0.1.0"
