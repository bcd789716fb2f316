"""GPS trajectory stay-point reduction and fuzzy-logic map matching."""

from .geo import (
    GeoPoint,
    PlanarPoint,
    Polylines,
    Projection,
    project_onto_polyline,
)
from .io import (
    RoadNetwork,
    Trajectory,
    TrajectoryRecord,
    parse_ground_truth,
    parse_road_network,
    parse_trajectory,
)
from .staypoint import (
    DbscanParams,
    StayPoint,
    dbscan,
    knn_distance_curve,
    reduce_trajectory,
    summarize_clusters,
    threshold_staypoint_detect,
)
from .fuzzy import RuleBase, default_rule_base
from .matcher import MatcherConfig, MatchResult, match_trajectory
from .evalbench import ComparisonReport, correct_link_count, generate_scenario, run_pipeline

__version__ = "0.1.0"
