"""Complete-graph structure and the quadratic consensus-deviation form.

The fleet communicates over a complete graph, whose Laplacian is
``L = n*I - ones*ones^T``.  The deviation-from-consensus cost ``x' L x``
is evaluated through the algebraic identity

    x' L x = n * sum(x_i^2) - (sum(x_i))^2

which is O(n) and never materializes the matrix; ``consensus_cost_rows``
is its one implementation, for a single state or a stack of state rows.
``laplacian_dense`` is provided for testing and debugging only.
"""

import numpy as np

__all__ = ["consensus_cost_rows", "laplacian_dense"]


def consensus_cost_rows(states) -> np.ndarray:
    """``x' L x`` along the last axis, whose length is the agent count ``n``.

    Equals half the sum of ``(x_i - x_j)^2`` over ordered agent pairs and
    is zero exactly when all entries of a row are equal.  A single state
    vector gives a 0-d array.
    """
    states = np.asarray(states, dtype=float)
    s = states.sum(axis=-1)
    # cancellation near consensus can round a hair below zero
    return np.maximum(states.shape[-1] * (states * states).sum(axis=-1) - s * s, 0.0)


def laplacian_dense(n: int) -> np.ndarray:
    """Dense ``n x n`` Laplacian ``n*I - ones*ones^T`` (debug/testing aid)."""
    return n * np.eye(n) - np.ones((n, n))
