"""Letter-braiding invariants of words in free and finitely presented
groups, with exact coefficients in Z, Q or F_p.

``rings`` holds the scalars, the sparse linear combination that tensors
and truncated series share, and the elimination kernel; ``words`` holds
words and homomorphisms given on generators (``GroupHom``, ``parse_hom``,
``compose``).  The free-group engine lives in ``braiding`` (chain sums,
braiding numbers and polynomials, multi-evaluations); ``magnus`` holds
the truncated Magnus expansion, which ``presented`` and ``johnson``
evaluate words through; ``presented`` computes truncated group rings,
invariant bases, dimension-series depth and pullbacks; ``johnson`` the
filtration level and dual Johnson matrix; ``finite`` a brute-force
group-algebra oracle for finite fixtures.  The circle model, the Fox
calculus and the other slow reference routes live in the test suite.
"""

from .rings import ZZ, QQ, PrimeField, RingSpec, ring_from_flag
from .words import (Alphabet, GroupHom, Letter, ParseError, Word, commutator,
                    compose, concat, format_word, free_reduce, inverse,
                    parse_hom, parse_word, power, substitute)
from .tensors import (BraidPolynomial, Functional, TensorElement, coproduct,
                      format_tensor, iterated_reduced_coproduct, parse_tensor,
                      reduced_coproduct, tensor_from_json, tensor_product,
                      tensor_to_json)
from .braiding import (braiding_number, braiding_polynomial, iterated_sum,
                       multi_evaluation, product_check)
from .magnus import TruncSeries, magnus_expand
from .presented import (DepthReport, InvariantBasis, Presentation,
                        TruncatedQuotient, Witness, build_truncated_quotient,
                        dimension_depth, invariants_basis, is_invariant, pair,
                        parse_presentation, pullback)
from .johnson import JohnsonReport, johnson_level, johnson_tau, parse_endo
from .finite import (FiniteGroupTable, cyclic_table, direct_product_table,
                     heisenberg_table, ideal_power_dims, word_image)

__version__ = "0.1.0"
