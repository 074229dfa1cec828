"""CRF-based part-of-speech tagger for code-mixed social-media text."""

from .corpus import (
    TEST2COL,
    TRAIN3COL,
    Corpus,
    CorpusError,
    Sentence,
    Token,
    merge_corpora,
    parse_corpus,
    write_corpus,
)
from .crf import (
    FeatureIndex,
    LabelSet,
    Lattice,
    Model,
    ModelFormatError,
    build_lattice,
    index_features,
    load_model,
    log_partition,
    posterior_marginals,
    save_model,
    viterbi,
)
from .evaluation import (
    EvalReport,
    EvaluationError,
    LabelScore,
    average_scores,
    evaluate,
    format_score,
    render_report,
)
from .features import (
    FeatureCatalogue,
    LexiconError,
    NormalizationLexicon,
    affixes,
    collapse_vowel_runs,
    context_composites,
    extract_attributes,
    extract_sentence_attributes,
    language_composite,
    length_bucket,
    load_lexicon,
    normalize_short_form,
    ortho_flags,
    vowel_count,
)
from .tagging import tag_corpus, tag_sentence
from .trainer import (
    IndexedCorpus,
    TrainConfig,
    TrainingError,
    TrainReport,
    index_corpus,
    objective_and_gradient,
    train,
)

__version__ = "0.1.0"
