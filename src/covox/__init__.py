"""covox: desk-scale multi-agent LiDAR-camera collaborative perception.

Synthetic sensing, cooperative depth generation, biased multi-modal voxel
fusion and bandwidth-efficient masked BEV feature sharing, with a scenario
runner that measures detection quality and communication volume under
sensor dropout and pose noise.
"""

from . import _heap

# Before anything allocates: see _heap for why trials need fixed thresholds.
_heap.fix_thresholds()

from .geometry import CameraIntrinsics, Pose
from .scene import AgentState, BoxObject, LidarSpec, ScenarioConfig, Wall
from .depth import DepthBins, DepthMap, NoisyOraclePredictor, UniformPredictor
from .voxel import Category, GridSpec, VoxelGrid
from .collab import Message, PipelineConfig, PipelineParams, make_pipeline_params, run_round
from .metrics import Detection
from .config import ExperimentSpec, load_experiment

__all__ = [
    "AgentState",
    "BoxObject",
    "CameraIntrinsics",
    "Category",
    "DepthBins",
    "DepthMap",
    "Detection",
    "ExperimentSpec",
    "GridSpec",
    "LidarSpec",
    "Message",
    "NoisyOraclePredictor",
    "PipelineConfig",
    "PipelineParams",
    "Pose",
    "ScenarioConfig",
    "UniformPredictor",
    "VoxelGrid",
    "Wall",
    "load_experiment",
    "make_pipeline_params",
    "run_round",
]

__version__ = "0.1.0"
