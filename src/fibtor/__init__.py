"""Sign-determined adjoint Reidemeister torsion of fibered knot exteriors.

The package has three layers:

* ``torsion``: a generic engine for Reidemeister torsion of finite based
  (and homology based) chain complexes, with the sign-determined refinement
  and the multiplicativity lemma;
* ``words`` / ``rep``: free-group words, Fox calculus, SL2(C)/SU(2)
  representations, the adjoint action and twisted cochain complexes of
  presentation 2-complexes;
* ``fibered`` / ``catalog``: the monodromy pipeline computing the torsion of
  a fibered knot exterior from the eigenvalues of the twisted monodromy,
  cross-validated by trace-coordinate Jacobians at genus one.
"""

from .errors import (
    DegenerateMonodromyError,
    FibtorError,
    InvalidInputError,
    NonSimpleUnitEigenvalueError,
    NotFixedPointError,
    NoUnitEigenvalueError,
    ReducibleCharacterError,
    ReducibleRestrictionError,
    RelatorViolationError,
)
from .torsion import (
    BasedChainComplex,
    ChainComplexError,
    change_of_basis_det,
    homology,
    multiplicativity_check,
    multiplicativity_signs,
    sign_determined_torsion,
    torsion,
)
from .words import GroupPresentation, GroupRingElement, Word, fox_derivative
from .rep import (
    SL2C,
    SU2,
    Representation,
    adjoint,
    commutator_trace,
    su2_pair,
    twisted_cochain_complex,
)
from .fibered import (
    FiberedKnot,
    TorsionReport,
    TraceCoordMap,
    abelianized_monodromy,
    eigenvalues_excluding_one,
    epsilon0,
    jacobian_torsion,
    lift_character_to_rep,
    main_theorem_torsion,
    sample_fixed_locus,
    torus_closed_form,
    wang_exact_sequence,
    wang_product_check,
    wang_sequence_torsion,
)
from .catalog import figure_eight, get_entry, holonomy_representation, trefoil

__version__ = "0.1.0"
