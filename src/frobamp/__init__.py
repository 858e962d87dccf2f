"""Exact computations on projective space over prime fields.

Frobenius amplitude, sheaf cohomology, Castelnuovo-Mumford regularity,
pushforward splitting types, and Schur-module combinatorics, all in exact
arithmetic on top of a small Groebner engine.
"""

__version__ = "0.1.0"

from .amplitude import (AmplitudeReport, amplitude_bound_from_regularity,
                        check_exact_sequence_bounds,
                        check_rank_and_dimension_bounds,
                        check_tensor_subadditivity, f_ample_test, f_amplitude)
from .cohomology import (CohomologyTable, FrobeniusRegularityReport,
                         RegularityReport, bott_oracle, cohomology_table,
                         generated_in_degrees, minreg_areg, regularity,
                         sheaf_cohomology)
from .groebner import groebner_basis
from .modfile import ModuleFileError, dumps_module, load_module, loads_module
from .modules import (GradedMap, GradedModule, ModuleHom, direct_sum,
                      free_module, frobenius_module, restrict_hyperplane,
                      tensor, twist, zero_module)
from .polynomials import MultiPoly, format_poly, frobenius_poly, parse_poly
from .pushforward import (BinomialPoly, SplittingType, boundary_cases,
                          splitting_oracle, splitting_type)
from .resolution import FreeResolution, free_resolution, syzygy_map
from .schur import (CarterLusztigComplex, Partition, carter_lusztig_complex,
                    hook_family_bookkeeping, schur_dimension)

__all__ = [name for name in dir() if not name.startswith("_")]
