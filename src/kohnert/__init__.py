"""Exact combinatorics of Kohnert diagrams, key and lock tableaux, their
generating polynomials and crystals, and the unlock map between them."""

from .core import (
    Cell,
    Composition,
    Diagram,
    TheoremViolation,
    family_closure,
    flatten,
    key_diagram,
    kohnert_closure,
    lock_diagram,
    padded_weight,
    weight,
)
from .crystal import (
    CrystalGraph,
    crystal_graph,
    is_connected,
    lower_diagram,
    lower_kkt,
    lower_lkt,
    lower_tableau,
    raise_diagram,
    raise_kkt,
    raise_lkt,
    raise_tableau,
)
from .poly import (
    SparsePolynomial,
    classify_symmetry,
    is_monomial_positive,
    is_quasisymmetric,
    is_symmetric,
    key_polynomial,
    lock_polynomial,
    polynomial,
    render_text,
    schur_polynomial,
    subtract,
)
from .tableaux import (
    LabeledDiagram,
    enumerate_kkt,
    enumerate_lkt,
    enumerate_tableaux,
    label_key,
    label_lock,
    lock_source_tableau,
    truncate_below,
    validate_kkt,
    validate_lkt,
)
from .unlock import (
    UnlockStep,
    UnlockTrace,
    apply_unlock,
    build_schedule,
    rectify,
    rectify_by_pairing,
    rectify_move,
    rectify_walk,
    schedule_groups,
    unlock_image,
    unlock_map,
    unlock_op,
)
from .verify import (
    ALL_CHECKS,
    DEFAULT_RANGE,
    SPOT_COMPOSITIONS,
    SweepRange,
    VerificationReport,
    check_agreement_and_truncation,
    check_characterizations,
    check_connectivity,
    check_intertwining,
    check_positivity,
    run_checks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
