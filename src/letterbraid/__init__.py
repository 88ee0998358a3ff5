"""Letter-braiding invariants of words in free and finitely presented
groups, with exact coefficients in Z, Q or F_p.

``rings`` holds the scalars, the sparse linear combination that tensors,
truncated series and group-ring elements share, and the elimination
kernel; ``words`` holds words and homomorphisms given on generators
(``GroupHom``, ``parse_hom``, ``compose``).  The free-group engine lives
in ``braiding`` (circle model, weight reduction, iterated sums);
``magnus`` holds the truncated Magnus expansion, which ``presented`` and
``johnson`` evaluate words through, and the Fox calculus kept as an
independent oracle; ``presented`` computes truncated group rings,
invariant bases, dimension-series depth and pullbacks; ``johnson`` the
filtration level and dual Johnson matrix; ``finite`` a brute-force
group-algebra oracle for finite fixtures.
"""

from .rings import ZZ, QQ, PrimeField, RingSpec, ring_from_flag
from .words import (Alphabet, GroupHom, Letter, ParseError, Word, commutator,
                    compose, concat, format_word, free_reduce, inverse,
                    parse_hom, parse_word, power, substitute)
from .tensors import (BraidPolynomial, Functional, TensorElement, coproduct,
                      format_tensor, iterated_reduced_coproduct, parse_tensor,
                      reduced_coproduct, tensor_from_json, tensor_product,
                      tensor_to_json)
from .braiding import (CircleForm, CircleWord, braiding_number,
                       braiding_polynomial, cobound, circle_integral,
                       iterated_sum, multi_evaluation, product_check,
                       pullback_to_circle, weight_reduce)
from .magnus import (FreeGroupRingElement, TruncSeries, augment,
                     fox_derivative, group_ring_mul, iterated_fox,
                     magnus_expand, trunc_mul)
from .presented import (DepthReport, InvariantBasis, Presentation,
                        TruncatedQuotient, Witness, build_truncated_quotient,
                        dimension_depth, invariants_basis, is_invariant, pair,
                        parse_presentation, pullback)
from .johnson import JohnsonReport, johnson_level, johnson_tau, parse_endo
from .finite import (FiniteGroupTable, cyclic_table, direct_product_table,
                     heisenberg_table, ideal_power_dims, word_image)

__version__ = "0.1.0"
