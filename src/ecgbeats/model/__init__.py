"""Tree-ensemble classifiers: gradient-boosted trees and a random forest,
with grid search over stratified folds and a plain-text model format.
"""

from .ensemble import EnsembleModel, predict_batch, predict_proba
from .forest import RfParams, fit_random_forest
from .gbdt import GbdtParams, fit_gbdt
from .persist import load_model, save_model
from .search import grid_search, stratified_kfold
from .tree import Tree

__all__ = [
    "EnsembleModel", "GbdtParams", "RfParams", "Tree",
    "fit_gbdt", "fit_random_forest", "grid_search", "stratified_kfold",
    "load_model", "predict_batch", "predict_proba", "save_model",
]
