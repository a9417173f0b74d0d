"""Leafwise quantization of parameter-driven mechanical systems.

The package turns a classical model (a fiber bundle of configuration
spaces over a parameter manifold, a path in the parameters, and a
momentum-polynomial Hamiltonian) into operators acting on wave sections
over the fiber, propagates the time-ordered evolution they generate,
and splits off the geometric factor accumulated along the path.
"""

__version__ = "0.1.0"

from .expressions import (  # noqa: F401
    Expression,
    ParseError,
    UnknownVariableError,
    UnboundVariableError,
    EvaluationError,
    parse_expr,
)
from .observables import (  # noqa: F401
    PolynomialObservable,
    BumpCover,
    CoverageError,
    poisson_bracket,
    decompose_polynomial,
)
from .bundle import (  # noqa: F401
    BundleModel,
    ParameterPath,
    prequant_curvature_check,
    reparametrize_path,
)
from .operators import (  # noqa: F401
    FiberGrid,
    WaveSection,
    quantizer,
    hermiticity_defect,
    dirac_symbol_defect,
    dirac_grid_defect,
)
from .evolution import (  # noqa: F401
    DrivenHamiltonian,
    ClassicalState,
    evolve_time_ordered,
    propagate_state,
    geometric_factor,
    split_evolution,
    classical_hamilton_flow,
)
from .scenarios import (  # noqa: F401
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    load_preset,
    preset_names,
)
from .runner import RunReport, run  # noqa: F401
from .verify import run_suite  # noqa: F401
