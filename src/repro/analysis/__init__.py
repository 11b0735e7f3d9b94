"""Experiment drivers, normalisation, and text rendering for the paper's
tables and figures."""
