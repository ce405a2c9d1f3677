"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class SingularDesignError(ArithmeticError):
    """Regression design is rank deficient on the observed points."""


class NoInteriorExtremumError(ValueError):
    """The estimated trend has no interior local extremum of the requested kind."""


def replicate_ids(ids: range) -> str:
    """``replicate b`` for one id, ``replicates a-b`` for a block of them."""
    return f"replicate {ids[0]}" if len(ids) == 1 else f"replicates {ids[0]}-{ids[-1]}"


class ReplicateError(RuntimeError):
    """A block of bootstrap replicates failed; names the block's ids and
    carries the first as ``replicate_id``."""

    def __init__(self, ids: range, message: str):
        super().__init__(f"{replicate_ids(ids)}: {message}")
        self.replicate_id = ids[0]


# Errors that mean a run cannot go ahead on its input, grouped as the command
# line reports them: invalid input (exit code 2) and numerical failure (3).
VALIDATION_ERRORS = (ValueError, FileNotFoundError)
NUMERICAL_ERRORS = (SingularDesignError, FloatingPointError, np.linalg.LinAlgError)
