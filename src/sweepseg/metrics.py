"""Pixel-wise segmentation metrics: confusion counts, the five standard
scores (accuracy, sensitivity, specificity, Dice, Jaccard), dataset-level
aggregation, and plain-text reporting.

Aggregation comes in both flavors: macro (mean of per-image scores) and
micro (scores of pooled counts). Any score whose denominator is zero is
defined as 1.0, so images with no lesion at all count as vacuously perfect
instead of poisoning the averages.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidTargetError, ShapeError


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(tp=self.tp + other.tp, tn=self.tn + other.tn,
                               fp=self.fp + other.fp, fn=self.fn + other.fn)


@dataclass
class MetricsReport:
    ac: float
    se: float
    sp: float
    di: float
    ja: float

    FIELDS = ("ac", "se", "sp", "di", "ja")

    def values(self) -> tuple[float, float, float, float, float]:
        return (self.ac, self.se, self.sp, self.di, self.ja)


def _binary(arr: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(arr)
    if not np.all((a == 0) | (a == 1)):
        raise InvalidTargetError(f"{name} mask must contain only 0 and 1")
    return a != 0


def confusion_counts(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    """Count pixel agreements between a predicted and a reference binary mask."""
    if np.shape(pred) != np.shape(gt):
        raise ShapeError(f"pred shape {np.shape(pred)} != gt shape {np.shape(gt)}")
    p = _binary(pred, "pred")
    g = _binary(gt, "gt")
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


def metrics_from_counts(c: ConfusionCounts) -> MetricsReport:
    if c.total <= 0:
        raise DataError("cannot compute metrics of zero pixels")
    return MetricsReport(
        ac=_ratio(c.tp + c.tn, c.total),
        se=_ratio(c.tp, c.tp + c.fn),
        sp=_ratio(c.tn, c.tn + c.fp),
        di=_ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn),
        ja=_ratio(c.tp, c.tp + c.fp + c.fn),
    )


def evaluate_dataset(pairs) -> tuple[MetricsReport, MetricsReport, list[MetricsReport]]:
    """(macro, micro, per-image): mean of per-image scores and pooled-count scores."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("cannot evaluate an empty dataset")
    per_image = []
    pooled = ConfusionCounts(0, 0, 0, 0)
    for pred, gt in pairs:
        counts = confusion_counts(pred, gt)
        per_image.append(metrics_from_counts(counts))
        pooled = pooled + counts
    macro = MetricsReport(*(float(np.mean([getattr(r, f) for r in per_image]))
                            for f in MetricsReport.FIELDS))
    return macro, metrics_from_counts(pooled), per_image


def _table_value(v: float) -> str:
    """2 to 3 decimals: print 3, drop one trailing zero (0.980 -> 0.98)."""
    s = f"{v:.3f}"
    return s[:-1] if s.endswith("0") else s


def format_report(rows: list[tuple[str, MetricsReport]]) -> str:
    """Render labeled reports as a table with columns AC SE SP DI JA."""
    if not rows:
        raise DataError("nothing to report")
    label_w = max(len(label) for label, _ in rows + [("Method", None)])
    header = "Method".ljust(label_w) + "".join(f"  {h:>5}" for h in ("AC", "SE", "SP", "DI", "JA"))
    lines = [header]
    for label, report in rows:
        cells = "".join(f"  {_table_value(v):>5}" for v in report.values())
        lines.append(label.ljust(label_w) + cells)
    return "\n".join(lines) + "\n"


def format_report_kv(rows: list[tuple[str, MetricsReport]]) -> str:
    """Machine-readable form: one "label.metric=value" line, 6 decimals."""
    lines = []
    for label, report in rows:
        for name, value in zip(MetricsReport.FIELDS, report.values()):
            lines.append(f"{label}.{name}={value:.6f}")
    return "\n".join(lines) + "\n"


def format_per_image(ids: list[str], reports: list[MetricsReport]) -> str:
    """CSV with header id,ac,se,sp,di,ja and one row per image, 6 decimals."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(("id",) + MetricsReport.FIELDS)
    for name, report in zip(ids, reports, strict=True):
        out.writerow([name] + [f"{v:.6f}" for v in report.values()])
    return buf.getvalue()
