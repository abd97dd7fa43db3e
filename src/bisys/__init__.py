"""Computational symbolic dynamics over two-sided leveled labeled graphs.

The layers ``equivalence`` and ``ktheory`` run on first use: each is in
``sys.modules`` from the start, and runs on the first access to one of its
attributes, here or on the module.  The other layers run on import.
"""

import importlib.util as _util
import sys as _sys
from types import ModuleType as _Module


def _lazy(name):
    """Submodule ``name`` of this package, in ``sys.modules``, to run on its
    first attribute access (the standard library's lazy-import recipe)."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Registered before the eager layers, so that both precede them in
# sys.modules (this package itself moves to the end once it has run).  Code
# that walks sys.modules in order and rebinds the functions of each namespace,
# as bench/spans.py's tracer does, then runs a lazy layer before it rebinds
# what the layer imports from core, subshift, bisystem and smb.  Registered
# after them, the layer would import the rebound functions, and the walk would
# wrap those a second time.
equivalence = _lazy("equivalence")
ktheory = _lazy("ktheory")

from .core import (
    Alphabet,
    CoreError,
    FormalSum,
    Specification,
    SymbolicMatrix,
    kappa_matrix,
    symbolic_matrix_multiply,
)
from .subshift import (
    BlockCode,
    LabeledGraph,
    SftMatrix,
    SubshiftError,
    SubshiftPresentation,
    admissible_words,
    apply_block_code,
    higher_block_recode,
)
from .bisystem import (
    BisystemError,
    LambdaGraphBisystem,
    LambdaGraphSystem,
    ValidationReport,
    fpcc_check,
    from_lambda_graph_system,
    presented_words,
    sigma_condition_I_witness,
    transpose,
    validate,
)
from .smb import (
    SmbError,
    SymbolicMatrixBisystem,
    from_smb,
    sft_smb,
    smb_isomorphic,
    to_smb,
    validate_smb,
)
from .canonical import (
    CanonicalBuild,
    CanonicalError,
    CentralClass,
    canonical_bisystem,
    canonical_smb,
)

# the public names of the lazy layers, each read from its layer on first use
_LAZY = dict.fromkeys((
    "EquivalenceError", "PsseWitness", "SseWitness", "bipartite_split", "conjugacy_block_map",
    "detect_bipartite", "psse_to_sse", "trivial_psse_witness", "verify_psse_1step",
    "verify_sse_1step",
), equivalence) | dict.fromkeys((
    "FgAbelianGroup", "KResult", "build_ladder", "ck_oracle", "k_groups",
    "kernel_contains_constant", "smith_normal_form",
), ktheory)


def __getattr__(name):
    """A public name of a lazy layer: read from the layer, which runs it, and
    kept here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


# the names imported above and those of the lazy layers, without the submodules
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _Module)] + list(_LAZY))
__version__ = "0.1.0"
