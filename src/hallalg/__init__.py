"""Exact Hall algebra computations for quiver representations over prime
fields, with the groupoid-level (categorified) counterparts and checks."""

from .linalg import BudgetError, DEFAULT_BUDGET
from .quiver import Quiver, RepCategory
from .hall import HallAlgebra
from .groupoids import ConcreteGroupoid, ConcreteSpan, GroupoidFunctor
from .cathall import ExtGroupoid, SESObject

__version__ = "0.1.0"
