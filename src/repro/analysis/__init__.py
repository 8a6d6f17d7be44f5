"""Analysis: turning scan output into the paper's tables and figures."""
