"""Command-line interface: train, tag, eval, and features subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import corpus as corpus_mod
from . import trainer
from .corpus import CorpusError, decode_text, merge_corpora, parse_corpus, write_corpus
from .crf import ModelFormatError, load_model, save_model
from .evaluation import evaluate, format_score, render_report
from .features import (
    EMPTY_LEXICON,
    FeatureCatalogue,
    LexiconError,
    extract_sentence_attributes,
    load_lexicon,
)
from .tagging import tag_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data errors
    def error(self, message):
        raise _UsageError(message)


@contextmanager
def _file(path: str) -> Iterator[Path]:
    """The boundary of every file the CLI reads or writes: an ``OSError``
    becomes a ``CorpusError`` and a data error names the file."""
    try:
        yield Path(path)
    except OSError as exc:
        raise CorpusError(f"{path}: {exc.strerror or exc}") from None
    except (CorpusError, ModelFormatError) as exc:  # LexiconError included
        raise type(exc)(f"{path}: {exc}") from None


def _check_writable(path: Path) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise, creating and
    truncating nothing."""
    if path.exists() or not path.parent.is_dir():
        # without O_CREAT or O_TRUNC; fails with EISDIR, EACCES, ENOENT or ENOTDIR
        os.close(os.open(path, os.O_WRONLY))
    elif not os.access(path.parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _parse_file(path: str, schema: str | None):
    """The corpus in ``path``; a None schema is that of the first token line."""
    with _file(path) as file:
        text = decode_text(file.read_bytes())
        if schema is None:
            first = text.lstrip("\ufeff\r\n").partition("\n")[0]
            schema = corpus_mod.TRAIN3COL if first.count("\t") == 2 else corpus_mod.TEST2COL
        return parse_corpus(text, schema)


def _load_lexicon_arg(path: str | None):
    if path is None:
        return EMPTY_LEXICON
    with _file(path) as file:
        return load_lexicon(decode_text(file.read_bytes(), LexiconError))


def cmd_train(args) -> int:
    # option values are checked before any file is read
    try:
        catalogue = FeatureCatalogue().without(*args.disable_feature)
        config = trainer.TrainConfig(
            cutoff=args.cutoff,
            l2_sigma2=args.sigma2,
            max_iterations=args.max_iter,
            tolerance=args.tol,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _file(args.model) as model_path:
        _check_writable(model_path)
    lexicon = _load_lexicon_arg(args.lexicon)
    parts = [_parse_file(path, corpus_mod.TRAIN3COL) for path in args.train]
    merged = merge_corpora(parts)
    if len(merged) == 0:
        raise CorpusError("training data contains no sentences")
    model, report = trainer.train(merged, lexicon, catalogue, config)
    with _file(args.model) as model_path:
        model_path.write_bytes(save_model(model))
    print(f"training sentences: {len(merged)}")
    print(f"training tokens: {merged.token_count()}")
    print(f"labels: {len(model.labels)}")
    print(f"parameters: {model.index.size}")
    print(f"iterations: {report.iterations}")
    print(f"final objective: {report.final_objective:.6f}")
    print(f"wall time: {report.wall_time:.2f}s")
    print(f"model written to {args.model}")
    return EXIT_OK


def _load_model_arg(path: str):
    with _file(path) as file:
        return load_model(file.read_bytes())


def cmd_tag(args) -> int:
    with _file(args.output) as output:
        _check_writable(output)
    model = _load_model_arg(args.model)
    source = _parse_file(args.input, corpus_mod.TEST2COL)
    # the model's own lexicon and catalogue
    tagged = tag_corpus(model, source)
    with _file(args.output) as output:
        output.write_bytes(write_corpus(tagged, corpus_mod.TRAIN3COL).encode("utf-8"))
    return EXIT_OK


def cmd_eval(args) -> int:
    gold = _parse_file(args.gold, corpus_mod.TRAIN3COL)
    pred = _parse_file(args.pred, corpus_mod.TRAIN3COL)
    report = evaluate(gold, pred)
    print(render_report(report, args.report))
    print(format_score(100 * report.overall_f1))
    return EXIT_OK


def _parse_position(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--position expects 's:t', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"--position expects integers, got {text!r}") from None


def cmd_features(args) -> int:
    if args.model is not None:
        lexicon, catalogue = _load_model_arg(args.model).features()
    else:
        lexicon, catalogue = _load_lexicon_arg(args.lexicon), FeatureCatalogue()
    corpus = _parse_file(args.input, None)

    if args.position is not None:
        s, t = _parse_position(args.position)
        if not (0 <= s < len(corpus)) or not (0 <= t < len(corpus.sentences[s])):
            raise CorpusError(f"position {s}:{t} is out of range")
        targets = [(s, [t])]
    else:
        targets = [(s, range(len(sentence))) for s, sentence in enumerate(corpus)]

    for s, positions in targets:
        sentence = corpus.sentences[s]
        rows = extract_sentence_attributes(sentence, lexicon, catalogue)
        for t in positions:
            print(f"# sentence {s} token {t}: {sentence[t].surface}")
            for attr in rows[t]:
                print(attr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixtag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from 3-column corpora")
    p.add_argument("--train", action="append", required=True, metavar="FILE",
                   help="training file (repeatable; files are merged)")
    p.add_argument("--lexicon", metavar="FILE", help="normalization lexicon")
    p.add_argument("--model", required=True, metavar="FILE", help="model output path")
    defaults = trainer.TrainConfig()
    p.add_argument("--cutoff", type=int, default=defaults.cutoff, help="attribute frequency cutoff")
    p.add_argument("--sigma2", type=float, default=defaults.l2_sigma2, help="L2 penalty sigma^2")
    p.add_argument("--max-iter", type=int, default=defaults.max_iterations)
    p.add_argument("--tol", type=float, default=defaults.tolerance,
                   help="relative objective-change stopping tolerance")
    p.add_argument("--disable-feature", action="append", default=[],
                   metavar="FAMILY",
                   help=f"disable a feature family ({', '.join(FeatureCatalogue.family_names())})")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a 2-column file with a trained model")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--output", required=True, metavar="FILE")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold tags")
    p.add_argument("--gold", required=True, metavar="FILE")
    p.add_argument("--pred", required=True, metavar="FILE")
    p.add_argument("--report", choices=("table", "line"), default="table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("features", help="print extracted attributes per token")
    p.add_argument("--input", required=True, metavar="FILE")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--lexicon", metavar="FILE")
    source.add_argument("--model", metavar="FILE",
                        help="extract with this model's own lexicon and catalogue")
    p.add_argument("--position", metavar="S:T",
                   help="restrict output to sentence S, token T")
    p.set_defaults(func=cmd_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"mixtag: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"mixtag: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # CorpusError, LexiconError, ModelFormatError, ...
        print(f"mixtag: {exc}", file=sys.stderr)
        return EXIT_DATA
    except trainer.TrainingError as exc:
        print(f"mixtag: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
