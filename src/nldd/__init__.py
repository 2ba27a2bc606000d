"""Multi-label classification by nearest labelset with double distances,
with Binary Relevance and Subset-Mapping baselines."""

from .br import (BRModel, br_fit, br_predict, br_predict_proba_matrix,
                 smbr_predict)
from .data import (Dataset, DataError, StandardizationStats,
                   dataset_summary, load_csv, load_sparse, save_csv,
                   split_random, standardize_apply, standardize_fit)
from .evaluate import (cross_validate, generate_synthetic, holdout_eval,
                       observed_labelset_split, scaling_experiment,
                       wilcoxon_signed_rank, WilcoxonResult)
from .learner import (ConstantProbModel, LinearProbModel, TrainingError,
                      fit_fallback, fit_logistic)
from .metrics import MetricsReport, aggregate, instance_metrics_matrix
from .model import (BinomialFit, NlddModel, fit_binomial_glm,
                    mine_pairs, nldd_predict, nldd_train,
                    predict_with_confidence, theta)
from .persist import load_model, save_model

__version__ = "0.1.0"
