"""Exact toolkit for k-step Fibonacci, Horadam, and k-periodic recurrences.

Four layers, usable independently:

* :mod:`fiblike.sequences` -- sequence specifications and exact evaluation
  (integer recurrence and a Fiduccia x^n-mod-charpoly fast path);
* :mod:`fiblike.identities` -- decomposition identities with brute-force
  witnesses;
* :mod:`fiblike.charpoly` -- characteristic polynomials, certified dominant
  roots, full spectra, and closed forms;
* :mod:`fiblike.convergence` -- successive-ratio limits and asymptotic fits.

A command-line front end lives in :mod:`fiblike.cli` (``fiblike gen|verify|
root|limit``).
"""

from .charpoly import (
    CharPoly,
    RootConvergenceError,
    RootSet,
    all_roots,
    charpoly_of,
    dominant_root,
    dresden_coefficient,
    dresden_exact_sum,
    dresden_round,
    horadam_binet,
    knacci_constant,
    rootset_to_dict,
    wu_zhang_ordered,
)
from .convergence import (
    AsymptoticFit,
    PRINTED_PARITY_ASSIGNMENTS,
    RatioReport,
    adjudicate_parity_assignment,
    asymptotic_fit,
    ratio_limit,
    ratio_limit_reference,
    report_to_csv,
    report_to_dict,
)
from .identities import (
    DecompositionWitness,
    WitnessTerm,
    decompose_canonical,
    decompose_horadam_like,
    decompose_knacci_like,
    decompose_periodic2,
    decompose_periodic2_edson,
    decompose_periodic3,
    decompose_periodic_k,
    dump_witness,
    periodic2_swap_relation,
    witness_to_dict,
)
from .rationals import as_rational, as_rationals, format_rational, parse_rational_list
from .sequences import (
    PeriodicSpec,
    RecurrenceSpec,
    dump_spec,
    evaluate,
    evaluate_fast,
    evaluate_floor_indexed,
    evaluate_periodic,
    horadam_spec,
    knacci_spec,
    load_spec,
    periodic_basis,
    periodic_spec,
    spec_from_dict,
    spec_to_dict,
    terms,
)

__version__ = "0.1.0"
