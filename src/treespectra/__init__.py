"""Exact integer spectral analysis of trees.

Everything is computed over the integers and rationals: tree characteristic
polynomials from matching numbers, tree eigenvalue counts by exact inertia,
root counting of general polynomials by Sturm chains, integrality verdicts
by exact division, and tree enumeration by canonical level sequences.
"""

from .catalog import CatalogRecord
from .enumeration import FreeTreeEnumerator, enumerate_free_trees
from .polys import (DivisibilityError, IntPoly, PrecisionExhausted, RealRoot,
                    RootCount, SymmetryError, count_roots_open, even_part,
                    poly_gcd, root_bound, square_free_decomposition,
                    taylor_shift)
from .reduction import (PendantReport, pendant_growth_holds, pendant_report,
                        reduce_with_trace, reduced_census,
                        strip_monotonicity_holds, strip_pendant_p2)
from .search import CursorError, SearchConfig, run_search
from .spectra import (SpectrumSummary, TreeSpectrum, char_poly,
                      char_poly_ring_with_pendants, courant_weyl_check,
                      inertia, inertia_integrality, join_formula, m_value,
                      nullity_matching, squared_shift_check)
from .trees import (Tree, TreeFormatError, attach_pendants, bipartition,
                    c_tree, format_tree_text, hub_vertices, join_trees,
                    parse_tree_text, path, s_tree, without_vertex)
from .verifier import (SUITES, VerdictRecord, eigencat_check,
                       nullity3_case_polynomials, nullity_classification,
                       nullity_one_class_check, parter_sweep,
                       pendant_bundle_shape_check, random_tree, rhocat_check,
                       ring_subdivision_check, run_suite, s_nonintegral_scan)

__version__ = "0.1.0"
