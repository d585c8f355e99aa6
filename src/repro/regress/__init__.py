"""Reference-band regression harness for ``results/*.json``.

Every results artifact the benchmark harness regenerates gets a
committed reference band per metric leaf (``results/bands.json``):
absolute bands for error metrics, relative bands for simulated
latencies, exact-match for counts and labels.  Every leaf is a
deterministic function of the code (wall-clock timings live in
``perfbench/``), so ``repro regress`` fails on any silent drift of the
committed or regenerated results.  Entry points:

* :func:`check_results` — library API used by the CLI, CI, and tests;
* :func:`build_bands` — the ``--update-bands`` regeneration workflow;
* ``repro regress`` — the CLI subcommand wrapping both.

See ``docs/REGRESSION.md``.
"""

from __future__ import annotations

from repro.regress.bands import (
    bands_for_payload,
    build_bands,
    file_bands,
    file_schema,
    load_bands,
    save_bands,
)
from repro.regress.check import (
    FINDING_DRIFT,
    FINDING_EXTRA_LEAF,
    FINDING_KINDS,
    FINDING_MISSING_FILE,
    FINDING_MISSING_LEAF,
    FINDING_SCHEMA,
    FINDING_UNBANDED_FILE,
    RegressFinding,
    RegressRun,
    check_payload,
    check_results,
    count_banded_leaves,
)
from repro.regress.flatten import flatten, leaf_name, split_path, unflatten
from repro.regress.policy import (
    BAND_KINDS,
    DEFAULT_POLICIES,
    KIND_ABSOLUTE,
    KIND_EXACT,
    KIND_RELATIVE,
    Band,
    TolerancePolicy,
    classify,
)
from repro.regress.render import render_json, render_text
from repro.regress.resultsio import (
    BANDS_NAME,
    META_KEY,
    META_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    dumps_result,
    load_result,
    result_names,
    schema_of,
    stamp_payload,
    write_result_file,
)

__all__ = [
    "BANDS_NAME",
    "BAND_KINDS",
    "Band",
    "DEFAULT_POLICIES",
    "FINDING_DRIFT",
    "FINDING_EXTRA_LEAF",
    "FINDING_KINDS",
    "FINDING_MISSING_FILE",
    "FINDING_MISSING_LEAF",
    "FINDING_SCHEMA",
    "FINDING_UNBANDED_FILE",
    "KIND_ABSOLUTE",
    "KIND_EXACT",
    "KIND_RELATIVE",
    "META_KEY",
    "META_SCHEMA_KEY",
    "RESULTS_SCHEMA_VERSION",
    "RegressFinding",
    "RegressRun",
    "TolerancePolicy",
    "bands_for_payload",
    "build_bands",
    "check_payload",
    "check_results",
    "classify",
    "count_banded_leaves",
    "dumps_result",
    "file_bands",
    "file_schema",
    "flatten",
    "leaf_name",
    "load_bands",
    "load_result",
    "render_json",
    "render_text",
    "result_names",
    "save_bands",
    "schema_of",
    "split_path",
    "stamp_payload",
    "unflatten",
    "write_result_file",
]
