from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .edgeconv import DualBlock, EdgeConvBranch, prepared_edges
from .gradcheck import GradCheckReport, finite_difference_check
from .layers import BatchNorm, Linear, Param, ReLU, Sequential
from .loss import cross_entropy_loss
from .network import NetworkConfig, SegmentationNetwork
from .optim import Adam, learning_rate
