"""Exact computer algebra for Koszul power towers, torsion and completion.

The package computes, over the integers and over polynomial/quotient
backends with exact coefficients: Smith/Hermite normal forms, Groebner
bases and syzygies, finitely presented modules with kernels/cokernels,
bounded cochain complexes, Koszul complexes with their power towers,
pro-zero and weak proregularity verdicts, torsion and completion towers,
and the finite-depth torsion/completion equivalence checks.
"""

from .intlinalg import (Mat, SnfResult, hermite_normal_form, kernel_basis,
                        smith_normal_form)
from .fieldlinalg import PrimeField, RationalField
from .poly import MonomialOrder, Poly, PolyRing
from .groebner import GroebnerBasis, groebner_basis, normal_form
from .rings import (IntegerRing, PolynomialRing, QuotientRing, integers,
                    prime_poly_ring, quotient_ring, rational_poly_ring)
from .fpmod import (FpModule, IdealSpec, ModuleMorphism, cokernel, direct_sum,
                    free_module, ideal_power, kernel, minimized, power_sequence,
                    quotient_module, tensor_module, zero_module)
from .complexes import (BoundedComplex, ComplexMorphism, cohomology,
                        hom_complex, module_complex, ring_complex,
                        tensor_complexes)
from .resolutions import FreeResolution, free_resolution
from .towers import (IndSystem, ProSystem, SystemMap, is_pro_zero,
                     tower_equivalence, vanishing_check)
from .koszul import (KoszulTower, copointed_idempotence_check, koszul_complex,
                     koszul_transition, weak_proregularity_check)
from .torsion import (completion_tower, derived_completion_tower,
                      ext_torsion_tower, gamma, koszul_torsion_tower, mgm_check,
                      profinite_tower)
from .zmodclass import (ZModClass, injective_torsion_acyclicity_test,
                        weak_stability_check, zmod_ext1, zmod_gamma)

__version__ = "0.1.0"
