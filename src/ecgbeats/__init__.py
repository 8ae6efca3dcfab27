"""ecgbeats: single-lead ECG heartbeat classification.

Two routes over the same preprocessed beats: 76-dim hand-crafted feature
vectors feeding tree ensembles (gradient boosting / random forest), and
3-channel 32x32 image encodings (GASF / MTF / recurrence plot) exported for
external image classifiers.
"""
