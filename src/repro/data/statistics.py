"""Table and column statistics, as a Catalyst-style optimizer would keep.

Statistics are computed once per generated table and used by the
cardinality estimator (:mod:`repro.plan.cardinality`), by the GPSJ
analytic baseline, and as "other features" of the learned cost models
(the paper feeds cardinality and distinct counts alongside the plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import DataType, TableSchema
from repro.errors import CatalogError

__all__ = ["ColumnStatistics", "TableStatistics", "compute_table_statistics"]


@dataclass
class ColumnStatistics:
    """Summary statistics for one column.

    ``histogram`` is an equi-depth histogram over numeric values:
    ``bounds`` has ``len(counts) + 1`` entries and ``counts[i]`` rows
    fall in ``[bounds[i], bounds[i+1])`` (last bucket right-inclusive).
    For string columns the histogram is over the per-value frequency
    table instead (``top_values`` / ``top_counts``).
    """

    name: str
    dtype: DataType
    row_count: int
    ndv: int
    null_count: int = 0
    min_value: float | None = None
    max_value: float | None = None
    bounds: np.ndarray | None = None
    counts: np.ndarray | None = None
    top_values: list = field(default_factory=list)
    top_counts: list[int] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        """Fraction of NULL rows."""
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    def selectivity_eq(self, value) -> float:
        """Estimated selectivity of ``col = value``."""
        if self.row_count == 0:
            return 0.0
        for v, c in zip(self.top_values, self.top_counts):
            if v == value or (self.dtype != DataType.STRING and float(v) == float(value)):
                return c / self.row_count
        if self.dtype == DataType.STRING:
            covered = sum(self.top_counts)
            rest_rows = max(self.row_count - covered - self.null_count, 0)
            rest_ndv = max(self.ndv - len(self.top_values), 1)
            return (rest_rows / rest_ndv) / self.row_count if rest_rows else 1.0 / max(self.row_count, 1)
        if self.min_value is None or not (self.min_value <= float(value) <= self.max_value):
            return 0.0
        rest_rows = max(self.row_count - sum(self.top_counts) - self.null_count, 0)
        rest_ndv = max(self.ndv - len(self.top_values), 1)
        return (rest_rows / rest_ndv) / max(self.row_count, 1)

    def selectivity_range(self, low: float | None, high: float | None,
                          low_inclusive: bool = True, high_inclusive: bool = True) -> float:
        """Estimated selectivity of a (half-)open numeric range predicate.

        Uses the equi-depth histogram with linear interpolation inside
        partially-covered buckets; falls back to a uniform assumption
        when no histogram is available.
        """
        if self.row_count == 0 or self.dtype == DataType.STRING:
            return 1.0 / 3.0  # default guess, as in classical optimizers
        if self.min_value is None or self.max_value is None:
            return 1.0 / 3.0
        lo = self.min_value if low is None else float(low)
        hi = self.max_value if high is None else float(high)
        lo = max(lo, self.min_value)
        hi = min(hi, self.max_value)
        if hi < lo:
            return 0.0
        # Most-common values are tracked exactly (histogram excludes them).
        mcv_rows = 0.0
        for v, c in zip(self.top_values, self.top_counts):
            v = float(v)
            inside = (lo < v < hi) or (v == lo and low_inclusive) or (v == hi and high_inclusive)
            if lo == hi:
                inside = v == lo and low_inclusive and high_inclusive
            if inside:
                mcv_rows += c
        if self.bounds is None or self.counts is None or self.counts.sum() == 0:
            span = self.max_value - self.min_value
            hist_rows = 0.0
            if span > 0:
                remainder = max(self.row_count - sum(self.top_counts) - self.null_count, 0)
                hist_rows = remainder * (hi - lo) / span
            return float(min(max((mcv_rows + hist_rows) / self.row_count, 0.0), 1.0))
        covered = 0.0
        for i, count in enumerate(self.counts):
            b_lo, b_hi = self.bounds[i], self.bounds[i + 1]
            width = b_hi - b_lo
            if width <= 0:
                if lo <= b_lo <= hi:
                    covered += count
                continue
            overlap = max(0.0, min(hi, b_hi) - max(lo, b_lo))
            covered += count * (overlap / width)
        sel = (mcv_rows + covered) / self.row_count if self.row_count else 0.0
        return float(min(max(sel, 0.0), 1.0))

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (used when persisting catalogs)."""
        return {
            "name": self.name,
            "dtype": self.dtype.value,
            "row_count": self.row_count,
            "ndv": self.ndv,
            "null_count": self.null_count,
            "min_value": self.min_value,
            "max_value": self.max_value,
        }


@dataclass
class TableStatistics:
    """Statistics for a whole table."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics]
    avg_row_bytes: float = 32.0

    @property
    def total_bytes(self) -> float:
        """Estimated on-disk size of the table."""
        return self.row_count * self.avg_row_bytes

    def column(self, name: str) -> ColumnStatistics:
        """Look up statistics for a column."""
        if name not in self.columns:
            raise CatalogError(f"no statistics for column {self.table}.{name}")
        return self.columns[name]


_BYTES_PER_TYPE = {DataType.INT: 8, DataType.FLOAT: 8, DataType.STRING: 24}


def compute_table_statistics(
    schema: TableSchema,
    data: dict[str, np.ndarray],
    buckets: int = 32,
    top_k: int = 16,
) -> TableStatistics:
    """Scan generated column arrays and build :class:`TableStatistics`."""
    row_count = len(next(iter(data.values()))) if data else 0
    col_stats: dict[str, ColumnStatistics] = {}
    row_bytes = 0.0
    for col in schema.columns:
        if col.name not in data:
            raise CatalogError(f"data for {schema.name!r} missing column {col.name!r}")
        values = data[col.name]
        row_bytes += _BYTES_PER_TYPE[col.dtype]
        if col.dtype == DataType.STRING:
            mask = np.array([v is not None for v in values], dtype=bool)
            present = values[mask]
            uniques, counts = np.unique(present, return_counts=True)
            order = np.argsort(counts)[::-1][:top_k]
            col_stats[col.name] = ColumnStatistics(
                name=col.name,
                dtype=col.dtype,
                row_count=row_count,
                ndv=int(len(uniques)),
                null_count=int(row_count - mask.sum()),
                top_values=[str(uniques[i]) for i in order],
                top_counts=[int(counts[i]) for i in order],
            )
            continue
        numeric = np.asarray(values, dtype=np.float64)
        null_mask = np.isnan(numeric)
        present = numeric[~null_mask]
        if present.size == 0:
            col_stats[col.name] = ColumnStatistics(
                name=col.name, dtype=col.dtype, row_count=row_count,
                ndv=0, null_count=int(null_mask.sum()),
            )
            continue
        uniques, unique_counts = np.unique(present, return_counts=True)
        ndv = int(uniques.size)
        # Track heavy hitters (more than ~2 average buckets of mass) as
        # exact most-common values; the histogram covers the remainder.
        mcv_threshold = max(present.size / (buckets * 2), 1.0)
        heavy = unique_counts > mcv_threshold
        order = np.argsort(unique_counts[heavy])[::-1][:top_k]
        top_values = [float(v) for v in uniques[heavy][order]]
        top_counts = [int(c) for c in unique_counts[heavy][order]]
        remainder = present[~np.isin(present, np.array(top_values))] if top_values else present
        if remainder.size:
            n_buckets = min(buckets, max(int(np.unique(remainder).size), 1))
            quantiles = np.linspace(0.0, 1.0, n_buckets + 1)
            dedup = np.unique(np.quantile(remainder, quantiles))
            if dedup.size > 1:
                counts, bounds = np.histogram(remainder, bins=dedup)
            else:
                bounds = np.array([remainder.min(), remainder.max()])
                counts = np.array([remainder.size])
        else:
            bounds = None
            counts = None
        col_stats[col.name] = ColumnStatistics(
            name=col.name,
            dtype=col.dtype,
            row_count=row_count,
            ndv=ndv,
            null_count=int(null_mask.sum()),
            min_value=float(present.min()),
            max_value=float(present.max()),
            bounds=bounds,
            counts=counts,
            top_values=top_values,
            top_counts=top_counts,
        )
    return TableStatistics(
        table=schema.name,
        row_count=row_count,
        columns=col_stats,
        avg_row_bytes=max(row_bytes, 8.0),
    )
