"""Two-domain vehicle re-identification at desk scale: adversarial domain
adaptation with gradient reversal, identity-balanced dual-domain batches,
masked semi-supervised losses, AMSGrad training, and rank-K retrieval
evaluation with k-reciprocal re-ranking.
"""

from .autodiff import (GraphError, NonFiniteError, Tensor,
                       finite_difference_check, grad_reversal,
                       softmax_cross_entropy)
from .datagen import ToySpec, generate_toy_dataset, read_dataset, write_dataset
from .evaluation import (EvalConfig, EvalReport, RerankParams, cmc,
                         evaluate_retrieval, k_reciprocal_rerank,
                         mean_average_precision, pairwise_distances)
from .losses import LossWeights, domain_loss, total_loss, triplet_batch_hard
from .network import (ModelConfig, ModelParams, embed, head_logits,
                      init_params, load_checkpoint, save_checkpoint)
from .optimizer import LrSchedule, OptimState, amsgrad_step, lr_at_epoch
from .sampling import (REAL, SYNTHETIC, Batch, BatchSpec, Sample, TrainSet,
                       bin_orientation, build_train_set, sample_batch)
from .trainer import (DivergenceError, TrainConfig, TrainResult,
                      domain_probe_accuracy, evaluate, id_accuracy, train,
                      train_on)

__version__ = "0.1.0"
