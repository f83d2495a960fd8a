"""Execution: planning once per statement text, and the iterator executor."""

from repro.sqlengine.exec.executor import Executor, QueryResult, ResultColumn
from repro.sqlengine.exec.plan import Plan, build_plan
from repro.sqlengine.exec.planner import AccessPath, choose_access_path, extract_sargs

__all__ = [
    "AccessPath",
    "Executor",
    "Plan",
    "QueryResult",
    "ResultColumn",
    "build_plan",
    "choose_access_path",
    "extract_sargs",
]
