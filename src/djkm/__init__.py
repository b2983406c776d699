"""Exact computation and verification of the DJKM central-extension polynomials.

The package computes the four polynomial families attached to the universal
central extension of g (x) C[t, t^-1, u | u^2 = t^4 - 2ct^2 + 1], verifies the
differential equations and identities they satisfy (symbolically, residual
identically zero), reduces Kahler differentials to the five-dimensional center
to evaluate the 2-cocycle, and realizes the orthogonality of the two even
sequences through exact Favard data, moments, Hankel determinants, and Gauss
quadrature.
"""

import importlib

# The bare cocycle(f, g) function stays in djkm.cocycle: re-exporting it here
# would shadow the submodule attribute of the same name.
from .cocycle import (
    OmegaVector,
    PsiReport,
    RMonomial,
    psi,
    reduce_plain,
    reduce_u_monomial,
    t_pow,
    t_pow_u,
    uu_central_term,
    verify_psi_table,
)
from .diffops import (
    LinearDiffOp,
    build_case3_op,
    build_case4_op,
    build_elliptic1_op,
    build_elliptic2_op,
    build_gegenbauer_op,
    build_qform_op,
    build_wimp_op,
    eigencheck,
    fourth_order_sweep,
    ode_sweep,
    second_order_sweep,
)
from .exact import (
    LaurentSeries,
    NonDivisibleError,
    NotSquareError,
    Rational,
    RationalPoly,
    ResidueError,
    VerificationError,
)
from .families import (
    FamilyId,
    IndexView,
    PolynomialFamily,
    assoc_ultraspherical,
    gegenbauer,
    generate,
    get_family,
    verify_gegenbauer_link,
)
from .oracle import (
    OracleResult,
    check_funde,
    expand_elliptic1,
    expand_elliptic2,
    expand_gegenbauer_sum,
)


# djkm.ortho imports numpy, which only its Gauss quadrature needs, so it loads
# on first access to it or to one of its names (PEP 562): `import djkm` and the
# commands that never call it stay on the standard library.  Every name of
# __all__ not bound by the imports above is one of djkm.ortho's.
def __getattr__(name: str):
    if name == "ortho" or name in __all__:
        # importlib, not `from . import ortho`: that form tests hasattr(djkm,
        # "ortho") first, which would call back into this function
        ortho = importlib.import_module(".ortho", __name__)
        return ortho if name == "ortho" else getattr(ortho, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "FamilyId",
    "IndexView",
    "LaurentSeries",
    "LinearDiffOp",
    "NoConvergenceError",
    "NonDivisibleError",
    "NonclassicalWitness",
    "NotSquareError",
    "OmegaVector",
    "OracleResult",
    "PolynomialFamily",
    "PsiReport",
    "RMonomial",
    "Rational",
    "RationalPoly",
    "ResidueError",
    "ThreeTermData",
    "VerificationError",
    "assoc_jacobi",
    "assoc_ultraspherical",
    "build_case3_op",
    "build_case4_op",
    "build_elliptic1_op",
    "build_elliptic2_op",
    "build_gegenbauer_op",
    "build_qform_op",
    "build_wimp_op",
    "check_funde",
    "eigencheck",
    "expand_elliptic1",
    "expand_elliptic2",
    "expand_gegenbauer_sum",
    "favard_lambdas",
    "fourth_order_sweep",
    "gegenbauer",
    "generate",
    "get_family",
    "golub_welsch",
    "gram_check",
    "gram_matrix",
    "hankel",
    "hyp2f1",
    "moments",
    "nonclassical_check",
    "ode_sweep",
    "psi",
    "quad_orthogonality",
    "reduce_plain",
    "reduce_u_monomial",
    "second_order_sweep",
    "t_pow",
    "t_pow_u",
    "three_term",
    "uu_central_term",
    "verify_gegenbauer_link",
    "verify_psi_table",
]
