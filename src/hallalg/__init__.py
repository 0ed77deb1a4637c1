"""Exact Hall algebra computations for quiver representations over prime
fields, with the groupoid-level (categorified) counterparts and checks."""

from .linalg import BudgetError, DEFAULT_BUDGET, Matrix, PrimeField, enumerate_matrices
from .quiver import (IsoClass, Quiver, RepCategory, RepMorphism, Representation,
                     dim_add, dim_total)
from .hall import GradeBoundError, HallAlgebra, HallVector
from .groupoids import (ConcreteGroupoid, ConcreteSpan, GroupoidFunctor,
                        action_groupoid, compose_spans, degroupoidify_span,
                        degroupoidify_vector, equivalent, weak_pullback)
from .cathall import (BraidingSpan, ExtGroupoid, SESObject,
                      build_A0, bsim_ext_check, coherence_check,
                      ext_bilinearity_first, ext_bilinearity_second,
                      ext_cardinality_check, hexagonator_R, hexagonator_S,
                      riedtmann_check)

__version__ = "0.1.0"
