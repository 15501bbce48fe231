"""Unsupervised hyperspectral image segmentation.

A 3D convolutional autoencoder learns per-pixel embeddings from 5x5xB
patches and a clustering head with trainable centers turns them into soft
cluster assignments; training runs in two stages (reconstruction-only, then
joint reconstruction + clustering).  The package also ships the classical
pieces such a study needs: PCA and band-window (S-MSI) reductions, k-means
and Gaussian-mixture baselines, and clustering quality metrics (NMI,
adjusted rand score, OA/AA/kappa).
"""

from .autodiff import Tape, Tensor, grad_check
from .cae import (CaeConfig, CaeParams, build_cae, decode_batch, encode_batch,
                  init_centers, load_checkpoint, reconstruction_loss,
                  save_checkpoint, soft_assign, target_distribution,
                  clustering_loss, total_loss)
from .clustering import GmmModel, KmeansModel, gmm_em, kmeans
from .cube import (HsiCube, PatchBatch, SegmentationMap, extract_patches,
                   load_cube, load_labels, normalize, write_cube,
                   write_labels, write_ppm)
from .errors import (ConfigError, DataError, DegenerateDataError, FormatError,
                     HsisegError, InsufficientDataError, NumericalError,
                     ParameterError, ShapeError, SizeMismatchError, StateError)
from .metrics import (ContingencyTable, PairCounts, adjusted_rand_from_table,
                      ars, contingency, evaluate_labelings, nmi, pair_counts)
from .reduction import (PcaModel, pca_fit, pca_reduce, pca_transform,
                        smsi_reduce, smsi_windows)
from .synth import class_signatures, generate_cube, signature_separation
from .train import (AdamState, TrainConfig, TrainReport, adam_step, embed_all,
                    run_training, segment, train_stage1, train_stage2)

__version__ = "0.1.0"
