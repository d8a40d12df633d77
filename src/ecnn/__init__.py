"""Evolving cascade classifiers with embedded feature selection, plus
GMDH polynomial-network and randomized decision-tree baselines and a
benchmarking harness."""

from . import cascade, dataset, dtree, gmdh, harness
from .cascade import CascadeModel, CascadeNeuron, GrowthConfig
from .dataset import (
    Dataset,
    NormParams,
    SynthTruth,
    fit_normalize,
    load_csv,
    save_csv,
    split,
    synth_generate,
)
from .dtree import DtConfig, DtModel
from .errors import ConfigError, DataError, EcnnError, NumericError
from .gmdh import GmdhConfig, GmdhModel
from .harness import CvReport, RestartReport, chi_sweep, kfold, multi_restart
from .projection import FitResult, TrainConfig, fit_neuron, sigmoid

__version__ = "0.1.0"

__all__ = [
    "CascadeModel",
    "CascadeNeuron",
    "ConfigError",
    "CvReport",
    "DataError",
    "Dataset",
    "DtConfig",
    "DtModel",
    "EcnnError",
    "FitResult",
    "GmdhConfig",
    "GmdhModel",
    "GrowthConfig",
    "NormParams",
    "NumericError",
    "RestartReport",
    "SynthTruth",
    "TrainConfig",
    "cascade",
    "chi_sweep",
    "dataset",
    "dtree",
    "fit_neuron",
    "fit_normalize",
    "gmdh",
    "harness",
    "kfold",
    "load_csv",
    "multi_restart",
    "save_csv",
    "sigmoid",
    "split",
    "synth_generate",
]
