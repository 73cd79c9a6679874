"""Exact engine for flat connections in good-decomposition form:
irregularity divisors, cleanness verdicts, log-characteristic cycles,
Newton polygons, and de Rham Euler characteristics with brute-force
cross-checks.
"""

from .field import QQ, NumberField, Scalar
from .laurent import LaurentPolynomial, is_unit_in_R_n0, log_gradient, twist
from .series import LaurentSeries, PrecisionError
from .tropical import is_linear_on_octant, sorted_profile_linear
from .cycles import (ChartStamp, Direction, DivisorLine, LogCycle, LowerDim,
                     MonomialLogModule, ZeroSection, hilbert_dim, monomial_char_cycle)
from .cdvf import (DiffOperator, NewtonPolygon, RefinedClass, cyclic_vector,
                   newton_polygon, refined_residue)
from .goodmodel import (Chart, GoodModel, ModelSummand, certified_clean, clean_at_point,
                        irregularity_divisor, nonclean_locus,
                        validate_good_decomposition, zcar_prime)
from .euler import (ChernData, Curve, Surface, chi_EP, derham_oracle_curve,
                    integrality_check, kashiwara_dubson, reconcile_geometry)

__version__ = "0.1.0"
