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


def consensus_cost_rows(states, squares=None) -> np.ndarray:
    """``x' L x`` along the last axis, whose length is the agent count ``n``.

    ``x' L x`` equals half the sum of ``(x_i - x_j)^2`` over ordered agent
    pairs and is zero exactly when all entries of a row are equal.  A
    single state vector gives a 0-d array, with the bits of the same row
    in a stack.

    Below eight agents both sums run over the agents' strided columns, one
    whole-array addition per agent in agent order, the squares formed in
    ``squares``, a float array of ``states``' shape that the caller may
    read after (a fresh one if none is given); numpy sums fewer than eight
    elements in order, so the bits equal a per-row reduction's.  From eight
    agents on the rows are long enough for ``einsum`` to reduce each in
    place, and ``squares`` is not used.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[-1]
    if n < 8:
        if squares is None:
            squares = np.empty_like(states)
        np.multiply(states, states, out=squares)
        s, sq = states[..., 0].copy(), squares[..., 0].copy()
        for i in range(1, n):
            s += states[..., i]
            sq += squares[..., i]
    else:
        s = np.einsum("...i->...", states)
        sq = np.einsum("...i,...i->...", states, states)
    # cancellation near consensus can round a hair below zero
    return np.maximum(n * sq - s * s, 0.0)


def laplacian_dense(n: int) -> np.ndarray:
    """Dense ``n x n`` Laplacian ``n*I - ones*ones^T`` (debug/testing aid)."""
    return n * np.eye(n) - np.ones((n, n))
