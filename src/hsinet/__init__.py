"""Cross-domain pre-training and fine-tuning engine for hyperspectral pixel
classification: a self-contained numpy layer stack with gradient oracles, a
multi-branch residual backbone with a shared middle store, SGD training
schedules, ENVI raster ingestion, synthetic domain generators, and an
ablation-experiment harness.
"""

__version__ = "0.1.0"
