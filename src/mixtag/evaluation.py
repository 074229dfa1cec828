"""Scoring of predicted taggings against gold annotations."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .corpus import Corpus


class EvaluationError(ValueError):
    """Gold and prediction corpora do not line up."""


@dataclass(frozen=True)
class LabelScore:
    precision: float
    recall: float
    f1: float
    gold_count: int
    pred_count: int
    correct_count: int


@dataclass(frozen=True)
class EvalReport:
    per_label: dict[str, LabelScore]
    token_accuracy: float
    overall_f1: float  # micro-F1; equals token accuracy here
    macro_f1: float
    total_tokens: int


def _rate(num: int, den: int) -> float:
    return num / den if den else 0.0


def evaluate(gold: Corpus, pred: Corpus) -> EvalReport:
    """Per-label precision/recall/F1 plus micro accuracy.

    Both corpora must align sentence-by-sentence and token-by-token on
    surfaces; every token must carry a POS tag.
    """
    if len(gold) != len(pred):
        raise EvaluationError(
            f"sentence count mismatch: gold {len(gold)}, predicted {len(pred)}"
        )
    gold_counts: Counter[str] = Counter()
    pred_counts: Counter[str] = Counter()
    correct_counts: Counter[str] = Counter()
    for s, (gs, ps) in enumerate(zip(gold, pred)):
        if len(gs) != len(ps):
            raise EvaluationError(
                f"sentence {s}: length mismatch (gold {len(gs)}, predicted {len(ps)})"
            )
        for t, (gt, pt) in enumerate(zip(gs, ps)):
            if gt.surface != pt.surface:
                raise EvaluationError(
                    f"sentence {s}, token {t}: surface mismatch "
                    f"({gt.surface!r} vs {pt.surface!r})"
                )
            if gt.pos is None or pt.pos is None:
                raise EvaluationError(f"sentence {s}, token {t}: unlabeled token")
            gold_counts[gt.pos] += 1
            pred_counts[pt.pos] += 1
            if gt.pos == pt.pos:
                correct_counts[gt.pos] += 1

    per_label: dict[str, LabelScore] = {}
    for label in sorted(gold_counts | pred_counts):
        g, p, c = gold_counts[label], pred_counts[label], correct_counts[label]
        precision = _rate(c, p)
        recall = _rate(c, g)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[label] = LabelScore(precision, recall, f1, g, p, c)

    total = gold_counts.total()
    accuracy = _rate(correct_counts.total(), total)
    macro = _rate(sum(s.f1 for s in per_label.values()), len(per_label))
    # one predicted and one gold tag per token: micro P = micro R = accuracy
    return EvalReport(per_label, accuracy, accuracy, macro, total)


def average_scores(values: Sequence[float]) -> float:
    """Arithmetic mean; rounding is left to the presentation layer."""
    if not values:
        raise ValueError("cannot average an empty sequence")
    return sum(values) / len(values)


def round_half_up(value: float) -> float:
    """``value`` rounded half up to two decimals."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def format_score(value: float) -> str:
    """Display form used in reports: two decimals, half-up."""
    return f"{round_half_up(value):.2f}"


def render_report(report: EvalReport, style: str = "table") -> str:
    """Render as an aligned table or as machine-readable tab lines."""
    if style == "line":
        lines = [
            f"{label}\t{s.precision:.6f}\t{s.recall:.6f}\t{s.f1:.6f}"
            f"\t{s.gold_count}\t{s.pred_count}\t{s.correct_count}"
            for label, s in report.per_label.items()
        ]
        return "\n".join(lines)
    if style != "table":
        raise ValueError(f"unknown report style {style!r}")
    width = max([len("label"), *map(len, report.per_label)])
    header = f"{'label':<{width}}  {'P':>7}  {'R':>7}  {'F1':>7}  {'gold':>6}  {'pred':>6}  {'corr':>6}"
    lines = [header]
    for label, s in report.per_label.items():
        lines.append(
            f"{label:<{width}}  {100 * s.precision:>7.2f}  {100 * s.recall:>7.2f}"
            f"  {100 * s.f1:>7.2f}  {s.gold_count:>6}  {s.pred_count:>6}  {s.correct_count:>6}"
        )
    lines.append(
        f"tokens {report.total_tokens}, accuracy {format_score(100 * report.token_accuracy)}, "
        f"macro-F1 {format_score(100 * report.macro_f1)}"
    )
    return "\n".join(lines)
