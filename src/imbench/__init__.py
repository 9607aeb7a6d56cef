"""imbench: class-imbalance benchmarking for tabular classification.

Quantifies label imbalance (CVCF, imbalance ratio, NECD), applies four
class-weighting schemes, trains four from-scratch model families (decision
tree, random forest, Newton-boosted trees, residual tabular net), and
compares classifiers across experimental blocks with Friedman / Wilcoxon /
Holm rank statistics and critical-difference diagrams.
"""

from .data import (
    ColumnSchema,
    ColumnSpec,
    Dataset,
    RawDataset,
    SplitIndices,
    filter_min_class_count,
    load_csv,
    load_schema,
    preprocess,
    save_csv,
    schema_for,
    stratified_split,
)
from .evaluation import F1Summary, accuracy, confusion_matrix, f1_scores
from .harness import (
    BlockResult,
    ExperimentConfig,
    SummaryRow,
    block_matrix,
    classifier_id,
    default_threshold_ladder,
    fit_block,
    load_dataset,
    load_experiment_config,
    read_results,
    run_sweep,
    summarize,
    write_degradation,
    write_results,
    write_summary,
)
from .hpo import (
    HpoResult,
    HpoSpec,
    TrialRecord,
    alias_family,
    family_params,
    fit_family,
    get_family,
    hpo_random_search,
    register_family,
    registered_families,
    sample_params,
    stratified_kfold,
    unregister_family,
)
from .imbalance import (
    ImbalanceReport,
    LabelDistribution,
    class_frequencies,
    cvcf,
    imbalance_ratio,
    imbalance_report,
    necd,
)
from .losses import one_hot, sigmoid, softmax, weighted_bce, weighted_cce
from .ranking import (
    BlockMatrix,
    RankAnalysis,
    friedman,
    holm_adjust,
    rank_analysis,
    render_cd,
    render_cd_text,
    wilcoxon_signed_rank,
)
from .synth import SynthConfig, counts_for_ratio, power_law_counts, synth_generate
from .tabresnet import ResNetConfig, TabResNetModel, gradient_check, hidden_dim_bounds, nn_build, nn_fit
from .trees import (
    DecisionTreeModel,
    ForestParams,
    GbtParams,
    GradientBoostedModel,
    RandomForestModel,
    TreeParams,
    dt_fit,
    gbt_fit,
    load_model,
    rf_fit,
    save_model,
)
from .weighting import (
    STRATEGIES,
    ClassWeights,
    compute_weights,
    weights_effective,
    weights_inverse,
    weights_median,
    weights_none,
)

__version__ = "0.1.0"
