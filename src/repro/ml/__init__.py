"""From-scratch ML substrate: trees, ensembles, boosting, KNN, linear-L1.

Stands in for scikit-learn / LightGBM / XGBoost / AutoGluon, which the
paper uses but which are unavailable here.  Only the qualitative properties
the evaluation depends on matter: tree models exploit relevant features and
tolerate noise; KNN/linear models degrade with irrelevant dimensions.
"""

from .automl import (
    MODEL_REGISTRY,
    NON_TREE_MODELS,
    TREE_MODELS,
    AutoTabularPredictor,
    EvaluationResult,
    evaluate_accuracy,
    fit_key,
)
from .encoding import TabularEncoder, encode_labels
from .forest import ExtraTreesClassifier, RandomForestClassifier
from .gbdt import (
    GradientBoostingBinaryClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
)
from .knn import KNeighborsClassifier
from .linear import LogisticRegressionL1
from .metrics import accuracy
from .tree import DecisionTreeClassifier

__all__ = [
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "ExtraTreesClassifier",
    "LightGBMClassifier",
    "XGBoostClassifier",
    "GradientBoostingBinaryClassifier",
    "KNeighborsClassifier",
    "LogisticRegressionL1",
    "TabularEncoder",
    "encode_labels",
    "accuracy",
    "AutoTabularPredictor",
    "EvaluationResult",
    "evaluate_accuracy",
    "fit_key",
    "MODEL_REGISTRY",
    "TREE_MODELS",
    "NON_TREE_MODELS",
]
