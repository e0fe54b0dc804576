"""Causal graph discovery, active dataset assembly, and targeted interventions.

Pipeline in one breath: cluster a molecular feature table into subsets,
discover a weighted causal DAG with the property of interest forced to be
a sink, actively grow a minimal dataset whose graph matches a global
reference graph under a spectral loss, then compute per-molecule feature
interventions that drive the fitted model to a prescribed target value
and match the intervened feature vectors back to real molecules.
"""

from .active import (
    ActiveLearningRun,
    IterationRecord,
    active_learn,
    random_baseline,
    selection_counts,
    summarize_runs,
)
from .causal import (
    FeatureRanking,
    WeightedDag,
    discover_lingam,
    rank_features,
    select_top_k,
)
from .cluster import GmmModel, assign_subsets, fit_gmm, responsibilities
from .dataio import (
    FeatureTable,
    FingerprintTable,
    LoadReport,
    Normalizer,
    TableSchema,
    apply_normalizer,
    concat_tables,
    fit_normalizer,
    load_feature_table,
    load_fingerprints,
    save_feature_table,
    save_fingerprints,
)
from .graphdist import Spectrum, spectral_distance, spectrum
from .intervene import (
    EffectMatrix,
    InterventionPlan,
    apply_interventions,
    feature_bounds,
    optimal_individual_intervention,
    plan_interventions,
    predict_target_sem,
    total_effects,
)
from .match import (
    InterventionReport,
    NeighborResult,
    PcaProjection,
    intervention_report,
    nearest_in_reference,
    pca_project,
    tanimoto,
)
from .regress import ForestModel, accuracy_trace, fit_forest, predict, r2
from .synth import SemSpec, make_heterogeneous_world, sample_sem

__version__ = "0.1.0"
