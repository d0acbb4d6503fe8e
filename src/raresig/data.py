"""Labeled samples and their class partition.

A :class:`LabeledSample` holds an ``(n, p)`` feature matrix together with
integer class labels in ``{0, ..., K}``; class 0 is the majority
("control") class and classes 1..K are the rare ("case") classes.
:func:`group_by_label` partitions the row positions by class and copies
no row: a :class:`GroupedSample` gathers a class's rows on their first
read, so a test copies only the rows it reads.

All containers are frozen and their arrays read-only.  A GroupedSample
caches the classes it gathers: threads that gather one class at once each
copy it (same values), so give each thread its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDataError, ValidationError

__all__ = [
    "LabeledSample", "GroupedSample", "group_by_label", "presort", "standardize",
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

    def with_labels(self, labels: np.ndarray) -> "LabeledSample":
        """Same features under a new label vector (no feature copy)."""
        out = object.__new__(LabeledSample)
        y = np.ascontiguousarray(labels, dtype=np.int64)
        object.__setattr__(out, "features", self.features)
        object.__setattr__(out, "labels", _freeze(y))
        return out


@dataclass(frozen=True)
class GroupedSample:
    """Counts and row positions per class over the feature matrix
    ``source``, whose class-k rows :meth:`group` gathers once; in
    ``GroupedSample(groups, counts, indices)`` it is the per-class
    matrices (by keyword ``source=``; ``groups=`` is refused)."""

    source: np.ndarray | tuple = field(repr=False, compare=False)
    counts: tuple
    indices: tuple
    # every class's first feature, sorted ascending, when :func:`presort`
    # made this sample for one test
    sorted_first: tuple | None = field(default=None, repr=False, compare=False)
    _gathered: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.source, np.ndarray):  # explicit groups
            self._gathered.update(enumerate(self.source))

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def n(self) -> int:
        return int(sum(self.counts))

    @property
    def p(self) -> int:
        return self.source[0].shape[-1]  # the first row, or class 0's matrix

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
        """Class k's first feature, sorted ascending: the copy
        :func:`presort` made, else a fresh sort."""
        if self.sorted_first is not None:
            return self.sorted_first[k]
        return np.sort(self.group(k)[:, 0])

    def keep_controls(self, inclusion: np.ndarray) -> GroupedSample:
        """This sample with class 0 cut to the rows the mask ``inclusion``
        keeps, over the same source: no control block is gathered."""
        src = self.source
        src = src if isinstance(src, np.ndarray) else (src[0][inclusion], *src[1:])
        return GroupedSample(src, (int(inclusion.sum()),) + self.counts[1:],
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


def presort(data: GroupedSample) -> GroupedSample:
    """``data`` with every class's first feature sorted once, so the
    sign kernels' statistic and projections in one test share the sorts."""
    cols = tuple(_freeze(np.sort(g[:, 0])) for g in data.groups)
    out = replace(data, sorted_first=cols)
    out._gathered.update(data._gathered)  # the same rows
    return out


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
