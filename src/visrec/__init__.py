"""Visual feature extraction from movie frame streams and feature-assisted
top-N recommendation with an offline evaluation harness."""

from .aggregate import AggregationKind, aggregate
from .descriptors import cld, csd, ehd, htd, mpeg7_all, scd
from .embeddings import load_embeddings
from .evaluation import (
    EvalReport,
    compute_metrics,
    make_splits,
    rank_one_plus_unrated,
)
from .featureio import FeatureRecord, FeatureVector
from .fusion import CcaModel, fit_cca, fuse
from .media import FrameBuffer, FrameStream, parse_ppm, parse_y4m, rgb_to_hsv, rgb_to_ycbcr
from .recsys import (
    FeatureMatrix,
    InteractionMatrix,
    SimilarityModel,
    TrainConfig,
    recommend,
    score,
    train_collective_slim,
)
from .shots import Histogram, ShotBoundaryList, detect_shots, frame_histogram, histogram_intersection
from .textfeat import GENRES, TagLsaModel, build_genre_matrix, fit_tag_lsa

__version__ = "0.1.0"
