"""Pure pursuit tracking controllers, a deterministic unicycle simulator,
and a benchmark harness comparing them on corner paths.

The root exports the library API; helpers used only inside the package stay
in their modules."""

from .config import (
    ControllerKind, CornerPathSpec, ExperimentConfig, KinodynamicLimits, LookaheadConfig, NoiseModel,
    ParameterError, RegulationConfig, StabilityConfig, SweepConfig,
)
from .controllers import operative_lookahead
from .harness import (
    emit_report,
    load_config,
    load_sweep_config,
    run_comparison,
    run_lookahead_sweep,
)
from .metrics import ScenarioMetrics, scenario_metrics
from .paths import ReferencePath, generate_corner_path
from .simulator import ScenarioResult, TrajectoryLog, run_scenario

__version__ = "0.1.0"
