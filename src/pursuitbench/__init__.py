"""Pure pursuit tracking controllers, a deterministic unicycle simulator,
and a benchmark harness comparing them on corner paths."""

from .controllers import (
    COMBINE_HARD_CAP,
    COMBINE_LOWER_BOUND,
    FIXED_LOOKAHEAD,
    VELOCITY_SCALED_LOOKAHEAD,
    ControllerKind,
    DynamicWindow,
    KinodynamicLimits,
    LookaheadConfig,
    RegulationConfig,
    StabilityConfig,
    VelocityCommand,
    apply_regulation_to_window,
    compute_command,
    compute_dynamic_window,
    curvature_heuristic,
    distance_point_to_line,
    goal_heuristic,
    min_stable_lookahead,
    operative_lookahead,
    optimal_velocity_in_window,
    pp_nominal_command,
    proximity_heuristic,
    regulate_linear_velocity,
)
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    ParameterError,
    PursuitBenchError,
    SimulationDivergedError,
)
from .harness import (
    ExperimentConfig,
    SweepConfig,
    emit_report,
    load_config,
    load_sweep_config,
    run_comparison,
    run_lookahead_sweep,
)
from .metrics import (
    AggregateMetrics,
    MeanSD,
    ScenarioMetrics,
    aggregate,
    cross_track_stats,
    scenario_metrics,
    violation_ratio,
)
from .paths import (
    CornerPathSpec,
    PathProjection,
    Pose2D,
    ReferencePath,
    RobotState,
    compute_curvature,
    generate_corner_path,
    lookahead_from_projection,
    nearest_point_on_path,
    polyline_distances,
    wrap_angle,
)
from .simulator import (
    HARDWARE_CLIP,
    PASS_THROUGH,
    NoiseModel,
    ScenarioResult,
    TrajectoryLog,
    clip_to_feasible,
    initial_state_on_path,
    run_scenario,
    step_unicycle,
)

__version__ = "0.1.0"
