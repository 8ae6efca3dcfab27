"""Tree-ensemble classifiers: gradient-boosted trees and a random forest,
with grid search over stratified folds and a plain-text model format.
"""
