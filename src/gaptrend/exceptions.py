"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class SingularDesignError(ArithmeticError):
    """Regression design is rank deficient on the observed points."""


class NoInteriorExtremumError(ValueError):
    """The estimated trend has no interior local extremum of the requested kind."""


class ReplicateError(RuntimeError):
    """A bootstrap replicate failed; carries the replicate id."""

    def __init__(self, replicate_id: int, message: str):
        super().__init__(f"replicate {replicate_id}: {message}")
        self.replicate_id = replicate_id


# Errors that mean a run cannot go ahead on its input, grouped as the command
# line reports them: invalid input (exit code 2) and numerical failure (3).
VALIDATION_ERRORS = (ValueError, FileNotFoundError)
NUMERICAL_ERRORS = (SingularDesignError, FloatingPointError, np.linalg.LinAlgError)
