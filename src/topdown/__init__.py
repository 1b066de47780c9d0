"""Top-down pose-tracking pipeline engine and evaluation harness."""

from .model import (
    BBox,
    EvalGroup,
    Frame,
    GROUPS,
    JOINTS,
    Joint,
    Keypoint,
    Pose,
    Sequence,
    SequenceError,
    joint_group,
    group_joints,
    load_sequence,
    save_predictions,
    strip_track_ids,
)
from .geometry import (
    DegenerateGeometryError,
    PRResult,
    bbox_from_keypoints,
    detection_pr,
    iou,
    nms_boxes,
    prune_candidates,
)
from .heatmaps import (
    Heatmap,
    HeatmapStack,
    decode_argmax,
    decode_stack,
    select_hardest_joints,
)
from .ensemble import Route, default_expert_map, fuse_average, fuse_expert
from .tracker import (
    RetentionTable,
    TrackerConfig,
    TrackingError,
    pose_similarity,
    prune_keypoints,
    retention_stats,
    solve_assignment,
    track_sequence,
)
from .metrics import (
    ApReport,
    EvaluationError,
    MotCounts,
    MotReport,
    PckhThreshold,
    evaluate_ap,
    evaluate_mot,
    head_size,
    match_poses_frame,
    reference_head_size,
)
from .synth import (
    AnalyticCounts,
    GroupConfidence,
    SynthOutput,
    SynthSpec,
    analytic_counts,
    calibrated_benchmark_spec,
    generate,
    noiseless_spec,
)
from .pipeline import (
    PipelineConfig,
    PipelineContractError,
    PipelineResult,
    run_pipeline,
    sweep,
)

__version__ = "0.1.0"
