"""Synthetic workload models standing in for the paper's Pin traces."""
