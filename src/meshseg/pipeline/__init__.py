from .augment import apply_affine, random_affine
from .crops import CropConfig, crop_scene, crop_windows, reject_crop, submesh
from .features import normalize_positions, vertex_features
from .infer import InferenceResult, infer_scene, majority_vote, predict_hierarchy, vote_over_runs
from .metrics import EvalResult, confusion_matrix, evaluate
from .toydata import NUM_TOY_CLASSES, ToySceneConfig, make_toy_dataset, make_toy_scene
from .train import Sample, TrainConfig, collect_crops, prepare_sample, train, train_step
