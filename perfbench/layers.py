"""The traced layers, and which end-to-end figure each layer metric should move.

Shared by ``traced_cli.py``, which wraps these functions, and ``run.py``,
which reports them.  Every function gets ``.calls``, ``.self_s`` (span
time minus child spans) and ``.total_s`` (span time, counted once
through recursion), per pass of the workload's query set.
"""

LAYERS = {
    "cli": ("main",),
    "energyauto": ("from_json", "reach_value", "buchi_value", "oracle_reach", "oracle_buchi"),
    "matrixkleene": ("mat_star", "mat_omega", "mat_omega_k"),
    "energyfn": ("compose", "join", "star", "from_json"),
    "omegaval": ("act", "omega", "vjoin"),
    "wordmodel": ("lasso_equal_bounded", "lasso_member", "lang_equal"),
    "laws": ("check_group_identity",),
}

# Per-layer metric prefix -> the end-to-end metric and workload it should
# move.  Written down before any change is measured against it.
MOVES = {
    "cli.main": "query_p50_s on ring-verify (its golden queries are small)",
    "energyauto.oracle_": "run_s and largest_size_s on ring-verify",
    "energyauto.reach_value": "run_s on *-query; against buchi_value it bounds a vector-only reach",
    "energyauto.buchi_value": "run_s on *-query",
    "energyauto.from_json": "query_p50_s on ring-verify",
    "matrixkleene.": "run_s and largest_size_s on ring-query and mixed-query",
    "energyfn.compose.distinct_frac": "bounds a compose memo's gain in run_s on *-query",
    "energyfn.join.distinct_frac": "bounds a join memo's gain in run_s on *-query",
    "energyfn.compose.bottom_frac": "work a sparsity-aware closure skips: run_s on *-query",
    "energyfn.": "run_s and peak_rss_mb on ring-query and mixed-query",
    "omegaval.": "run_s on *-query, through the buchi queries",
    "wordmodel.": "run_s and largest_size_s on word-omega",
    "laws.": "run_s on word-omega",
    "energyauto.verification_failed": "failed count on ring-verify",
    "energyauto.budget_exceeded": "failed count on any workload",
    "failed_frac": "failed count on its workload",
    "trace.overhead_frac": "nothing: the cost of tracing itself",
}


def moves(metric: str) -> str:
    """The MOVES entry with the longest prefix of ``metric``."""
    best = max((p for p in MOVES if metric.startswith(p)), key=len, default=None)
    return MOVES[best] if best else ""
