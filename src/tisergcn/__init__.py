"""Graph-convolutional regression of earthquake shaking intensity from
short multi-station waveform windows, with a from-scratch tensor engine,
synthetic data generation, classical baselines, and an experiment CLI.
"""

from .errors import (
    CheckpointFormatError,
    ConsistencyError,
    ConstructionError,
    DatasetFormatError,
    DatasetVersionError,
    DegenerateInputError,
    GraphReleasedError,
    InputError,
    ShapeError,
    TisergcnError,
    TrainingDivergedError,
    TruncatedFileError,
)
from .geo import (
    EARTH_RADIUS_KM,
    SensorGraph,
    Station,
    StationSet,
    build_adjacency,
    graph_stats,
    load_stations_csv,
    normalized_laplacian,
    pairwise_distances_km,
    propagation_matrix,
    renormalized_adjacency,
    save_stations_csv,
)
from .autodiff import Tensor, backward, parameter, zero_grad
from .model import (
    IM_NAMES,
    Model,
    ModelConfig,
    build_tiser_gcn,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    EventDataset,
    SynthConfig,
    SynthEvent,
    load_dataset,
    normalize_by_input_max,
    random_stations,
    save_dataset,
    synth_dataset,
    synth_event_waveforms,
)
from .baselines import (
    FEATURE_NAMES,
    KNNChoice,
    grid_search_cv,
    knn_fit_predict,
    knn_predict,
    mean_predictor,
)
from .train import (
    RunReport,
    TrainConfig,
    evaluate,
    run_protocol,
    split_protocol,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
