"""Workbench for model-guided and saturation-based clause reasoning.

Four engines over a shared function-free first-order core: a propositional
CDCL solver, a ground SCL-style trail engine for the Bernays-Schoenfinkel
fragment, ordered resolution with selection, and simple-bound propagation for
linear integer inequation systems.
"""

from .errors import (
    ClausekitError,
    OrderingConfigError,
    ParseError,
    ReplayStepError,
    ResourceLimitError,
)
from .logic import (
    Atom,
    Clause,
    Constant,
    Literal,
    Substitution,
    Term,
    Variable,
    canonical_variant,
    rename_apart,
    renamed_equal,
    unify,
)
from .ordering import Cmp, OrderingConfig, default_config, kbo_compare

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Clause",
    "ClausekitError",
    "Cmp",
    "Constant",
    "Literal",
    "OrderingConfig",
    "OrderingConfigError",
    "ParseError",
    "ReplayStepError",
    "ResourceLimitError",
    "Substitution",
    "Term",
    "Variable",
    "canonical_variant",
    "default_config",
    "kbo_compare",
    "rename_apart",
    "renamed_equal",
    "unify",
    "__version__",
]
