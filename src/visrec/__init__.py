"""Visual feature extraction from movie frame streams and feature-assisted
top-N recommendation with an offline evaluation harness."""

__version__ = "0.1.0"
