"""Benchmark harness regenerating every table and figure of the paper."""

from .config import (
    DDS_TIME_LIMIT,
    DEFAULT_THREADS,
    PAPER_MEMORY_BYTES,
    THREAD_SWEEP,
    UDS_TIME_LIMIT,
    paper_graph_copy_bytes,
    scaled_memory_limit,
)
from .experiments import (
    ALL_EXPERIMENTS,
    DDS_ALGORITHMS,
    UDS_ALGORITHMS,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
    run_exp5,
    run_exp6,
    run_exp7,
    run_exp8,
)
from .expectations import EXPECTATIONS, Expectation, check_result, expectations_for
from .kernels import render_kernel_report, run_kernel_bench
from .figures import chart_for, log_bar_chart, scaling_chart
from .serialization import load_json, result_from_dict, result_to_dict, save_json
from .harness import RunRecord, format_status, run_cell
from .reporting import ExperimentResult, render_table

__all__ = [
    "ALL_EXPERIMENTS",
    "UDS_ALGORITHMS",
    "DDS_ALGORITHMS",
    "run_exp1",
    "run_exp2",
    "run_exp3",
    "run_exp4",
    "run_exp5",
    "run_exp6",
    "run_exp7",
    "run_exp8",
    "RunRecord",
    "run_cell",
    "format_status",
    "ExperimentResult",
    "render_table",
    "chart_for",
    "log_bar_chart",
    "scaling_chart",
    "run_kernel_bench",
    "render_kernel_report",
    "EXPECTATIONS",
    "Expectation",
    "check_result",
    "expectations_for",
    "result_to_dict",
    "result_from_dict",
    "save_json",
    "load_json",
    "DEFAULT_THREADS",
    "THREAD_SWEEP",
    "DDS_TIME_LIMIT",
    "UDS_TIME_LIMIT",
    "PAPER_MEMORY_BYTES",
    "paper_graph_copy_bytes",
    "scaled_memory_limit",
]
