"""Cross-domain pre-training and fine-tuning engine for hyperspectral pixel
classification: a self-contained numpy layer stack with gradient oracles, a
multi-branch residual backbone with a shared middle store, SGD training
schedules, ENVI raster ingestion, synthetic domain generators, and an
ablation-experiment harness.
"""
from .data import (DomainDataset, PatchBatcher, SynthConfig, augment_d4,
                   extract_patch, load_manifest, normalize_bands, split_per_class,
                   synth_generate, with_split, write_dataset)
from .envi import HyperCube, LabelRaster, load_envi, load_label_raster, write_envi
from .errors import (CheckpointError, ConfigError, DataError, HsinetError,
                     NumericError, ShapeError)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .network import (CrossDomainNetwork, CrossDomainSpec, Network, NetworkSpec,
                      build_backbone, build_cross_domain, init_weights, transfer_shared)
from .ops import (BatchNormParams, ConvParams, Param, batchnorm_backward,
                  batchnorm_forward, conv2d_backward, conv2d_forward, conv2d_input_grad,
                  dropout, dropout_backward, make_batchnorm_params, make_conv_params,
                  relu, relu_backward, sgd_step, softmax_cross_entropy)
from .trainer import (MetricRow, TrainMetrics, TrainSchedule, evaluate, lr_at,
                      train_cross_domain, train_single, two_step_train)
from .experiments import ReportRow, run_experiment, summarize, write_report
from .verify import GradCheckReport, grad_check

__version__ = "0.1.0"
