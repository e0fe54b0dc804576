"""Causal graph discovery, active dataset assembly, and targeted interventions.

Pipeline in one breath: cluster a molecular feature table into subsets,
discover a weighted causal DAG with the property of interest forced to be
a sink, actively grow a minimal dataset whose graph matches a global
reference graph under a spectral loss, then compute per-molecule feature
interventions that drive the fitted model to a prescribed target value
and match the intervened feature vectors back to real molecules.
"""

__version__ = "0.1.0"
