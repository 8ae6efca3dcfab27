"""ecgbeats: single-lead ECG heartbeat classification.

Two routes over the same preprocessed beats: 76-dim hand-crafted feature
vectors feeding tree ensembles (gradient boosting / random forest), and
3-channel 32x32 image encodings (GASF / MTF / recurrence plot) exported for
external image classifiers.
"""

from .balance import BalancePlan, apply_plan, smote, undersample
from .encode import MtfConfig, encode_beat, gasf, mtf, paa, recurrence
from .errors import DataError, ParseError, ValidationError
from .features import beat_features, record_hrv
from .metrics import confusion_matrix, macro_metrics
from .model import (EnsembleModel, GbdtParams, RfParams, fit_gbdt,
                    fit_random_forest, grid_search, load_model, predict_batch,
                    save_model)
from .preprocess import (bandpass_filter, normalize_beats, preprocess_record, resample,
                         segment_beats)
from .record_io import (Beats, EcgRecord, LabelSet, export_image, load_feature_matrix,
                        load_record, save_feature_matrix)
from .synth import SynthConfig, generate

__version__ = "0.1.0"
