"""Exact computational toolkit for ADE root systems, convex orders, Kostant
partition posets, Dynkin quiver representations, and finite-field point
counts of stable flag fibers."""

from .convex_order import ConvexOrder, adapted_order, build_order, pairing_sign_report
from .errors import CalibrationError, CapExceeded, VerificationError
from .fields import RATIONALS, PrimeField, galois_field
from .flag_fibers import (
    evenness_check,
    fiber_point_count,
    fiber_polynomial,
    flag_degree_bound,
    z_point_count,
)
from .geometry import (
    baumann_check,
    calibrate,
    closure_leq,
    default_test_nus,
    hom_profile,
    ringel_check,
)
from .kostant import (
    KostantPartition,
    OrientationLedger,
    cover_relations,
    enumerate_kp,
    hasse_dot,
    kp_leq,
    mackey_dominance_check,
    prefix_statistics,
)
from .pbw import in_ker_locus, order_compat, reflect_kp, verify_reflection
from .quivers import (
    Quiver,
    adapted_word_of_w0,
    is_adapted,
    linear_quiver,
    parse_quiver_file,
    quiver,
    reflect_quiver,
    sinks,
    sources,
)
from .reps import (
    QuiverRep,
    all_indecomposables,
    bgp_reflect_rep,
    hom_dim,
    hom_matrix,
    hom_table,
    iso_class,
    orbit_point_count,
    rep_of_kp,
    rep_space_dim,
    simple_rep,
    zero_rep,
)
from .root_system import (
    CartanDatum,
    beta_sequence,
    cartan_datum,
    positive_roots,
    reflect_root,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
