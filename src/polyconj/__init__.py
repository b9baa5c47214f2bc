"""Polycyclic groups G(n), subset-sum variants, and the bridge between them.

The package provides exact exponent-vector arithmetic in a family of
polycyclic groups, solvers for the subset sum problem and two variants
(signed and twisted), polynomial-time reductions linking them to the
conjugacy problem in G(n), and decision/search/verification for that
conjugacy problem, with brute-force referees for everything.
"""

from .conjugacy import (
    Certificate,
    decide_conjugate,
    reachable_g1_values,
    search_conjugator,
    verify_certificate,
)
from .errors import (
    InstanceParseError,
    InvalidElementError,
    InvalidParameterError,
    InvalidPromiseError,
    NotAllEvenError,
    OracleTooLargeError,
    PolyconjError,
    SoundnessError,
    StateLimitError,
)
from .formats import CertificateFile, SolutionFile, parse_instance, serialize_instance
from .generate import GenSpec, generate
from .group import (
    GroupContext,
    GroupElement,
    bit_length,
    conjugate,
    conjugate_by_syllable,
    identity,
    inverse,
    make_context,
    make_element,
    multiply,
)
from .reductions import (
    ConjugacyInstance,
    SspInstance,
    SspPrimeInstance,
    assignment_to_conjugator,
    conjugator_to_assignment,
    pullback_conjugacy_to_tssp,
    pullback_sspprime_to_ssp,
    pullback_tssp_to_sspprime,
    push_ssp_solution_to_sspprime,
    push_sspprime_solution_to_tssp,
    signed_sum,
    solve_ssp_brute,
    solve_ssp_dp,
    solve_sspprime_brute,
    solve_sspprime_dp,
    ssp_search_via_decision,
    ssp_to_sspprime,
    sspprime_to_tssp,
    subset_sum,
    tssp_to_conjugacy,
)
from .tssp import (
    Assignment,
    TsspInstance,
    solve_tssp_brute,
    solve_tssp_dp,
    twisted_sum,
)
from .words import Letter, Word, collect, element_to_word, inverse_word

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Certificate",
    "CertificateFile",
    "ConjugacyInstance",
    "GenSpec",
    "GroupContext",
    "GroupElement",
    "InstanceParseError",
    "InvalidElementError",
    "InvalidParameterError",
    "InvalidPromiseError",
    "Letter",
    "NotAllEvenError",
    "OracleTooLargeError",
    "PolyconjError",
    "SolutionFile",
    "SoundnessError",
    "SspInstance",
    "SspPrimeInstance",
    "StateLimitError",
    "TsspInstance",
    "Word",
    "assignment_to_conjugator",
    "bit_length",
    "collect",
    "conjugate",
    "conjugate_by_syllable",
    "conjugator_to_assignment",
    "decide_conjugate",
    "element_to_word",
    "generate",
    "identity",
    "inverse",
    "inverse_word",
    "make_context",
    "make_element",
    "multiply",
    "parse_instance",
    "pullback_conjugacy_to_tssp",
    "pullback_sspprime_to_ssp",
    "pullback_tssp_to_sspprime",
    "push_ssp_solution_to_sspprime",
    "push_sspprime_solution_to_tssp",
    "reachable_g1_values",
    "search_conjugator",
    "serialize_instance",
    "signed_sum",
    "solve_ssp_brute",
    "solve_ssp_dp",
    "solve_sspprime_brute",
    "solve_sspprime_dp",
    "solve_tssp_brute",
    "solve_tssp_dp",
    "ssp_search_via_decision",
    "ssp_to_sspprime",
    "sspprime_to_tssp",
    "subset_sum",
    "tssp_to_conjugacy",
    "twisted_sum",
    "verify_certificate",
]
