"""Exact dissipative dynamics of moving qubits in leaky cavities and the
entanglement swapped between two such qubits by a Bell-state measurement.

The names below are the documented API (README, "Library"); the modules
hold the rest, such as ``qubitswap.scenario`` for scans and presets.  The
function ``amplitude`` hides its module of the same name, so reach that
module with ``importlib.import_module("qubitswap.amplitude")``."""

from types import ModuleType as _ModuleType

from .amplitude import ModelParams, TimeGrid, amplitude, build_amplitude_model
from .measures import (
    BlochAngles,
    average_linear_entropy,
    concurrence_closed,
    concurrence_wootters,
    density_matrix,
    density_populations,
    linear_entropy,
    post_bsm_projection,
)
from .power import entangling_power_quadrature

__all__ = sorted(name for name, value in vars().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
