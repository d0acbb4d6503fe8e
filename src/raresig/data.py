"""Labeled samples and their class partition.

A :class:`LabeledSample` holds an ``(n, p)`` feature matrix together with
integer class labels in ``{0, ..., K}``; class 0 is the majority
("control") class and classes 1..K are the rare ("case") classes.
:func:`group_by_label` partitions the row positions by class and copies
no row: a :class:`GroupedSample` gathers a class's rows on their first
read, so a test copies only the rows it reads, and sorts a class's first
feature on its first sorted read.

All containers are frozen and their arrays read-only.  A GroupedSample
caches the classes it gathers and the columns it sorts: threads that read
one class at once each copy or sort it (same values), so give each thread
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, ValidationError

__all__ = [
    "LabeledSample", "GroupedSample", "group_by_label", "standardize",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabeledSample:
    """Feature matrix plus per-row class labels.

    ``features`` is coerced to a read-only float64 ``(n, p)`` array and
    ``labels`` to read-only int64.  Non-finite feature values and
    negative labels are rejected at construction.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.features, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValidationError("features must be an (n, p) matrix with p >= 1")
        y = np.asarray(self.labels)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValidationError(
                f"labels length {y.shape} does not match {x.shape[0]} feature rows"
            )
        if y.size == 0:
            raise ValidationError("empty sample")
        if not np.issubdtype(y.dtype, np.integer):
            # a non-finite or out-of-range label casts to garbage (float)
            # or raises (object); either way it is not an int64 label
            try:
                with np.errstate(invalid="ignore"):
                    yi = y.astype(np.int64)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError("labels must be integers") from None
            if not np.array_equal(yi, y):
                raise ValidationError("labels must be integers")
            y = yi
        if y.min() < 0:
            raise ValidationError("labels must be >= 0")
        if not np.all(np.isfinite(x)):
            raise ValidationError("features contain non-finite values")
        object.__setattr__(self, "features", _freeze(x))
        object.__setattr__(self, "labels", _freeze(y.astype(np.int64)))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        """K + 1, where K is the largest label present."""
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class GroupedSample:
    """Counts and row positions per class over the ``(n, p)`` feature
    matrix ``source``, whose class-k rows :meth:`group` gathers once and
    whose class-k first feature :meth:`sorted_column` sorts once."""

    source: np.ndarray = field(repr=False, compare=False)
    counts: tuple
    indices: tuple
    _gathered: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _sorted: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.source, np.ndarray) or self.source.ndim != 2:
            raise ValidationError("source must be the (n, p) feature matrix")

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return int(sum(self.counts))

    @property
    def p(self) -> int:
        return self.source.shape[1]

    @property
    def imbalance(self) -> float:
        """n1 / n0, the case-to-control ratio."""
        return self.counts[1] / self.counts[0]

    @property
    def groups(self) -> tuple:
        return tuple(self.group(k) for k in range(self.n_classes))

    def group(self, k: int) -> np.ndarray:
        if k not in self._gathered:
            self._gathered[k] = _gather(self.source, self.indices[k])
        return self._gathered[k]

    def sorted_column(self, k: int) -> np.ndarray:
        """Class k's first feature, sorted ascending, read-only: the sign
        kernels' statistic and projections in one test share the sort."""
        if k not in self._sorted:
            self._sorted[k] = _freeze(np.sort(self.group(k)[:, 0]))
        return self._sorted[k]

    def keep_controls(self, inclusion: np.ndarray) -> GroupedSample:
        """This sample with class 0 cut to the rows the mask ``inclusion``
        keeps, over the same source: no control block is gathered."""
        return GroupedSample(self.source, (int(inclusion.sum()),) + self.counts[1:],
                             (self.indices[0][inclusion],) + self.indices[1:])


def _gather(source: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``source[rows]``, read-only: the one copy of a class's rows."""
    return _freeze(source[rows])


def group_by_label(sample: LabeledSample) -> GroupedSample:
    """Partition row positions by class label, in row order (no copy).

    Raises :class:`DegenerateDataError` when any class in
    ``0..max(labels)`` is empty (in particular when all rows share one
    label, which leaves nothing to compare).
    """
    n_classes = sample.n_classes
    indices = tuple(_freeze(np.flatnonzero(sample.labels == k)) for k in range(n_classes))
    for k, idx in enumerate(indices):
        if idx.size == 0:
            raise DegenerateDataError(
                f"degenerate partition: class {k} has no observations"
            )
    if n_classes < 2:
        raise DegenerateDataError(
            "degenerate partition: need at least one case class besides class 0"
        )
    return GroupedSample(sample.features, tuple(i.size for i in indices), indices)


def standardize(sample: LabeledSample) -> LabeledSample:
    """Center each feature column to mean 0 and scale to sample sd 1.

    The sample standard deviation uses the n-1 denominator.  A column
    with zero variance cannot be scaled and raises
    :class:`DegenerateDataError` naming the column.
    """
    x = sample.features
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    bad = np.flatnonzero(sd <= 0)
    if bad.size:
        raise DegenerateDataError(f"zero-variance feature column {bad[0]}")
    return LabeledSample((x - mean) / sd, sample.labels)
