"""Sparse branch prediction research framework.

Offline sparse modeling of branch-history correlations (Lasso/ElasticNet
logistic regression), compression into fixed-point COO sparsity hints, a
functional model of the hint-based inference unit coupled to conventional
baseline predictors, and trace-driven MPKI evaluation.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    HintFormatError,
    SbpError,
    TraceFormatError,
    TraceTruncatedError,
)
from .history import HistoryConfig, TrainingDataset, collect_datasets
from .hints import (
    HintSet,
    QuantSpec,
    ScoredCandidate,
    SlbiuConfig,
    SparsityHint,
    decode_hintset,
    dedup,
    encode_hintset,
    quantize,
    score,
    select,
    storage_bits,
)
from .online_sgd import OnlineConfig, run_online
from .predictors import Gshare, Prediction, Slbiu, TageLite, TageLiteConfig
from .simulator import SimConfig, SimReport, report_scurve, run, run_pipeline
from .sparse_modeling import (
    BranchScreen,
    SolverConfig,
    SparseModel,
    eval_accuracy,
    fit,
    lambda_search,
    screen,
)
from .trace_io import (
    SyntheticScenario,
    Trace,
    gen_correlated,
    gen_loop,
    gen_utilization,
    read_trace,
    write_trace,
)
