"""Spectral-threshold conditions for homeomorphically irreducible
spanning trees: exact HIST search, extremal families, eigenvalue
machinery, and exhaustive desk-scale verification drivers."""

from .graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    family_B,
    family_L,
    is_family_B,
    is_family_L,
    make_family,
    path_graph,
    star,
)
from .graph6 import (
    Graph6FormatError,
    decode_graph6,
    encode_graph6,
    read_graph6_file,
    stream_graph6,
)
from .spectral import (
    GUARD,
    THM1,
    THM2,
    ConvergenceError,
    InvariantViolation,
    QuarticPoly,
    SlackBound,
    SpectralResult,
    TheoremSpec,
    charpoly_B,
    charpoly_L,
    delta_bound,
    hong_bound,
    hong_value,
    largest_root,
    slack_bounds,
    spectral_radius,
)
from .hist import (
    Certificate,
    HistOutcome,
    ProofTrace,
    SearchBudgetError,
    find_hist,
    is_valid_hist,
    no_hist_certificate,
    oracle_hist,
    proof_guided_hist,
    spanning_trees,
)
from .verification import (
    AuditReport,
    CertificateReport,
    CorollaryReport,
    VerificationReport,
    audit_prescreens,
    enumerate_labeled,
    threshold_connected,
    threshold_two_connected,
    verify_certificates,
    verify_corollaries,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"
