"""solvkit: exact computational toolkit for invariant complex structures,
first cohomology, and pseudo-Kahler forms on low-dimensional solvable Lie
algebras, with integer-matrix lattice constructions and a JSON CLI.
"""

from .scalars import Scalar, parse_scalar, format_scalar, sc
from .polys import (Poly, poly_from_descending, squarefree_part, is_squarefree,
                    count_real_roots, all_roots_real, all_roots_pure_imaginary,
                    has_unit_modulus_root, factor_rational)
from .liealg import LieAlgebra, JacobiReport, realify_complex_brackets
from .cxstruct import (AlmostComplexStructure, j_from_images, nijenhuis,
                       is_integrable, IntegrabilityReport, ComplexSubalgebra,
                       subalgebra_from_j, j_from_subspace,
                       is_complex_lie_algebra, tautological_j)
from .cohomology import (Cochain, ce_d, h1_lie, HolonomyAction, winkelmann_h1,
                         closed_holomorphic_1forms, pseudo_kahler_obstruction)
from .pkforms import (j_compatible, metric_from, signature, classify,
                      ClassifyResult, closed_compatible_space,
                      sweep_invariant_forms, SweepResult)
from .expforms import (ExpForm, ext_d, conjugate_form, omega_coordinate,
                       maurer_cartan_forms, omega_mc, LatticeTranslation,
                       pullback_translation, restrict_identity)
from .linalg import char_poly
from .lattices import (EigenReport, classify_eigen,
                       semisimple_commuting_check, LatticeSpec,
                       build_lattice_nilpotent, build_lattice_nonnilpotent,
                       nakamura_lattice, classify_palindromic,
                       search_palindromic, SearchEntry,
                       companion_palindromic)
from .catalog import (CatalogEntry, get, list_names, group_law_eval,
                      brackets_from_group_law, GroupLawReport)
from . import errors

__version__ = "0.1.0"
