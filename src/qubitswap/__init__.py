"""Exact dissipative dynamics of moving qubits in leaky cavities and the
entanglement swapped between two such qubits by a Bell-state measurement."""

from .amplitude import (
    AmplitudeModel,
    CubicCoefficients,
    ModelParams,
    TimeGrid,
    amplitude,
    amplitude_ode_oracle,
    build_amplitude_model,
    closed_form_beta0,
    cubic_coefficients,
    solve_cubic,
)
from .measures import (
    BlochAngles,
    DensityMatrix4,
    InitialStateClass,
    PostBsmState,
    average_linear_entropy,
    classify_initial_state,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    linear_entropy,
    post_bsm_projection,
)
from .power import (
    MonteCarloSpec,
    QuadratureSpec,
    entangling_power_grid,
    entangling_power_mc,
    entangling_power_mc_grid,
    entangling_power_quadrature,
    entangling_power_series,
    reduced_integrand,
)
from .scenario import (
    ScenarioConfig,
    TimeSeries,
    config_text,
    emit_csv,
    figure_preset,
    parse_config,
    run_figure,
    run_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
