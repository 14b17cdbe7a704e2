"""pnoether: symbolic mod-p computations for loop-space cohomology.

The package computes with the algebraic structures that control p-complete
loop spaces whose classifying-space cohomology is Noetherian: the mod-p
Steenrod algebra (admissible words, excess, the full relation rewriting),
truncated graded-commutative algebras carrying Steenrod action tables,
Eilenberg-MacLane generator enumeration, a transgressive first-quadrant
spectral-sequence engine for connected covers, a symbolic engine for the
Krull filtration of unstable modules, the structure/splitting bookkeeping
for p-Noetherian groups, and p-adic square certificates.
"""

__version__ = "1.0.0"

from .errors import (DSLSyntaxError, EngineContractError, InconsistencyError,
                     InputError, MissingDataError, PNoetherError,
                     TruncationError, UnsupportedFibrationError)
from .steenrod import (SteenrodSum, adem_reduce, admissible_words, excess,
                       format_word, format_word_compact, is_admissible,
                       parse_word_expr, word_degree)
from .graded import (FiniteModuleTable, FreeCommPresentation,
                     FreeTruncAlgebra, GeneratorSpec, GradedMap,
                     QuotientTruncAlgebra, appendix_generators, expand,
                     indecomposables, quotient_by_ideal)
from .unstable import (F, Fin, KrullReport, ModuleExpr, Normal, Power, Q1,
                       Sigma, Sum, Tensor, ZERO, expr_dims, format_expr,
                       krull_degree, normal_form, parse_expr, tbar)
from .em import (CyclicClass, EMProduct, EMSpec, IntegerClass, PadicClass,
                 PruferClass, em_product_presentation,
                 fiber_layout, parse_space)
from .serre import FibrationSpec, SSResult, connected_cover_cohomology, run_ss
from .noetherian import (AbelianPGroup, FibrationDescription,
                         PNoetherianPresentation, SplitVerdict, SquareReport,
                         SumOfSquaresCertificate, TQReport, hom_zp,
                         is_divisible, is_square_int, padic_is_square,
                         padic_sum_of_squares_nonzero, padic_valuation,
                         parse_group, schwartz_target,
                         splitting_by_connecting, splitting_with_section,
                         structure_fibration, tq_of_classifying_space)
from .catalog import CatalogEntry, get_entry, load_catalog
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
