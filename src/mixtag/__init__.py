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
from .crf import FeatureIndex, Model, ModelFormatError, load_model, save_model
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
    extract_sentence_attributes,
    load_lexicon,
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
