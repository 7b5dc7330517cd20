"""Point-oriented multi-object tracking for aerial detection streams.

An online tracker over per-frame point detections (gated optimal
assignment on a constant-velocity Kalman filter, camera-motion
compensation, altitude-aware gating, classification-gated confirmation,
correlation-filter recovery of missed targets), an offline min-cost-flow
baseline, a trajectory-counting metrics suite and a deterministic
synthetic-scenario generator.
"""

__version__ = "0.1.0"

from .assignment import (
    AssignmentResult, GatedCosts, GatingPolicy, build_cost_matrix, dynamic_threshold, solve_assignment,
)
from .cmc import AffineTransform, RansacConfig, estimate_affine, warp_points
from .config import ToolkitConfig, load_toolkit_config
from .ddcf import (
    CorrelationFilter, DcfConfig, FeatureMap, FeaturePatch,
    extract_patch, localize, train_filter, update_filter,
)
from .errors import (
    ConfigError, DegenerateTransformError, FormatError, InvalidInputError,
    NoMotionEstimateError, ParseError, SequencingError, TrackingError,
    ValidationUnavailableError,
)
from .formats import CorrespondenceRow, Detection, SequenceBundlePaths
from .gog import FlowGraph, GogConfig, build_graph
from .gog import solve as gog_solve
from .lifecycle import (
    FeatureEnergyValidator, LifecycleConfig, OracleValidator, ScoreColumnValidator,
    TrackTable, TrajectoryValidator, ValidationContext,
)
from .metrics import (
    MetricsReport, TrajectorySet, compute_sequence_metrics, export_interchange,
    id_switches, pearson, t_ap, t_map, tr_mae, tr_nmae,
)
from .motion import KalmanState, MotionConfig, apply_affine, init_state, predict, update
from .pipeline import (
    FrameInput, FrameOutput, PointTracker, SequenceResult, TrackerConfig,
    frame_inputs_from_bundle, run_sequence,
)
from .render import render_overlay
from .simulate import ScenarioBundle, ScenarioConfig, generate, write_bundle
