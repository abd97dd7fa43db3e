"""Computational symbolic dynamics over two-sided leveled labeled graphs."""

from types import ModuleType as _Module

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
from .equivalence import (
    EquivalenceError,
    PsseWitness,
    SseWitness,
    bipartite_split,
    conjugacy_block_map,
    detect_bipartite,
    psse_to_sse,
    trivial_psse_witness,
    verify_psse_1step,
    verify_sse_1step,
)
from .ktheory import (
    FgAbelianGroup,
    KResult,
    build_ladder,
    ck_oracle,
    k_groups,
    kernel_contains_constant,
    smith_normal_form,
)

# the names imported above, without the submodules that importing them bound
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _Module)]
__version__ = "0.1.0"
