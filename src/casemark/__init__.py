"""Unsupervised extraction of nominal case markers from verse-parallel corpora."""
