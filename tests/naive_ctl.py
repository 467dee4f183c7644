"""Independent CTL oracle used against the production checker.

Evaluates formulas directly from reachability matrices rather than
labeling fixpoints: EX/AX inspect the adjacency matrix, EF/AG the
reflexive-transitive closure, and EG/AF look for a lasso (a reachable
cycle) inside the subgraph induced by the candidate set.  None of the
production bitmask code is reused.
"""

from __future__ import annotations

import numpy as np

from traceval import ctl

_CMP = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _positive_closure(adj: np.ndarray) -> np.ndarray:
    """Paths of length >= 1, by boolean squaring until nothing changes."""
    closure = adj.copy()
    while True:
        nxt = closure | (closure @ closure)
        if np.array_equal(nxt, closure):
            return closure
        closure = nxt


class NaiveChecker:
    def __init__(self, graph):
        self.graph = graph
        n = graph.state_count
        self.n = n
        adj = np.zeros((n, n), dtype=bool)
        for t in range(n):
            for s in graph.predecessors(t):
                adj[s, t] = True
        self.adj = adj
        self.reach = _positive_closure(adj) | np.eye(n, dtype=bool)
        self.columns = {
            var: np.array([s[j] for s in graph.states])
            for j, var in enumerate(graph.variables)
        }

    def sat_indices(self, formula) -> frozenset[int]:
        return frozenset(int(i) for i in np.nonzero(self._eval(formula))[0])

    def _eval(self, f) -> np.ndarray:
        if isinstance(f, ctl.TrueF):
            return np.ones(self.n, dtype=bool)
        if isinstance(f, ctl.FalseF):
            return np.zeros(self.n, dtype=bool)
        if isinstance(f, ctl.Atom):
            return _CMP[f.op](self.columns[f.var], f.value)
        if isinstance(f, ctl.Not):
            return ~self._eval(f.child)
        if isinstance(f, ctl.And):
            return self._eval(f.left) & self._eval(f.right)
        if isinstance(f, ctl.Or):
            return self._eval(f.left) | self._eval(f.right)
        if isinstance(f, ctl.EX):
            return (self.adj & self._eval(f.child)).any(axis=1)
        if isinstance(f, ctl.AX):
            return ~((self.adj & ~self._eval(f.child)).any(axis=1))
        if isinstance(f, ctl.EF):
            return (self.reach & self._eval(f.child)).any(axis=1)
        if isinstance(f, ctl.AG):
            return ~((self.reach & ~self._eval(f.child)).any(axis=1))
        if isinstance(f, ctl.EG):
            return self._lasso_within(self._eval(f.child))
        if isinstance(f, ctl.AF):
            return ~self._lasso_within(~self._eval(f.child))
        raise TypeError(f"not a CTL formula: {f!r}")

    def _lasso_within(self, member: np.ndarray) -> np.ndarray:
        """States with an infinite path staying inside ``member``.

        The transition relation is total, so such a path exists exactly
        when a cycle of member states is reachable through member states.
        """
        induced = self.adj & member[:, None] & member[None, :]
        closure = _positive_closure(induced)
        cyclic = np.diag(closure)
        return member & (cyclic | (closure & cyclic[None, :]).any(axis=1))
