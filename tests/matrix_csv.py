"""Reader of the accuracy matrix that `harness.write_matrix_csv` writes."""

import csv

import numpy as np


def read_matrix_csv(path) -> np.ndarray:
    """The (T, T) matrix of a matrix.csv; cells not written are NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    t_total = len(header) - 1
    out = np.full((t_total, t_total), np.nan)
    for row in rows[1:]:
        t = int(row[0])
        for j, cell in enumerate(row[1 : t_total + 1]):
            if cell:
                out[t - 1, j] = float(cell)
    return out
