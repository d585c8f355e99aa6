"""Tests for the reference-band regression harness (``repro regress``).

The load-bearing invariant: the committed band file admits the
committed results files, and any perturbation — a drifted value, an
added or dropped leaf, a missing file, a schema change — produces a
finding and a nonzero exit.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.regress import (
    Band,
    FINDING_DRIFT,
    FINDING_EXTRA_LEAF,
    FINDING_MISSING_FILE,
    FINDING_MISSING_LEAF,
    FINDING_SCHEMA,
    FINDING_UNBANDED_FILE,
    KIND_ABSOLUTE,
    KIND_EXACT,
    KIND_RELATIVE,
    META_KEY,
    RegressFinding,
    build_bands,
    check_results,
    classify,
    dumps_result,
    flatten,
    leaf_name,
    load_bands,
    load_result,
    result_names,
    save_bands,
    split_path,
    stamp_payload,
    unflatten,
    write_result_file,
)

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"
BANDS = RESULTS / "bands.json"


def _workdir(tmp_path):
    """A scratch copy of the committed results directory."""
    work = tmp_path / "results"
    shutil.copytree(RESULTS, work)
    return work


def _run_cli(*args, results_dir):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "regress",
         "--results-dir", str(results_dir), *args],
        capture_output=True, text=True, env=env, cwd=REPO,
    )


# ---------------------------------------------------------------------------
# The committed invariant


class TestCommittedArtifacts:
    def test_bands_admit_committed_results(self):
        run = check_results(RESULTS, load_bands(BANDS))
        assert run.findings == ()
        assert run.files == len(result_names(RESULTS))
        assert run.leaves > 1000

    def test_every_results_file_is_banded(self):
        banded = set(load_bands(BANDS)["files"])
        assert banded == set(result_names(RESULTS))

    def test_committed_results_are_canonical_and_stamped(self):
        for name in result_names(RESULTS):
            path = RESULTS / f"{name}.json"
            payload = load_result(path)
            assert META_KEY in payload, f"{name} is unstamped"
            assert path.read_text(encoding="utf-8") == dumps_result(payload)

    def test_bands_file_itself_is_canonical(self):
        assert BANDS.read_text(encoding="utf-8") == dumps_result(
            load_result(BANDS)
        )

    def test_update_bands_is_idempotent(self, tmp_path):
        rebuilt = stamp_payload(build_bands(RESULTS))
        assert dumps_result(rebuilt) == BANDS.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Injections: every perturbation must fail the check


class TestInjections:
    def _check(self, work):
        return check_results(work, load_bands(work / "bands.json"))

    def test_perturbed_leaf_drifts(self, tmp_path):
        work = _workdir(tmp_path)
        path = work / "sweep_speedup.json"
        payload = load_result(path)
        payload["scale"]["hit_rate"] *= 3.0
        write_result_file(path, payload)
        run = self._check(work)
        assert any(
            f.kind == FINDING_DRIFT and f.path == "scale/hit_rate"
            for f in run.findings
        )
        assert run.exit_code == 1

    def test_added_leaf_is_reported(self, tmp_path):
        work = _workdir(tmp_path)
        path = work / "sweep_speedup.json"
        payload = load_result(path)
        payload["sneaky_new_metric"] = 1.0
        write_result_file(path, payload)
        run = self._check(work)
        assert any(f.kind == FINDING_EXTRA_LEAF for f in run.findings)
        assert run.exit_code == 1

    def test_removed_leaf_is_reported(self, tmp_path):
        work = _workdir(tmp_path)
        path = work / "sweep_speedup.json"
        payload = load_result(path)
        del payload["cache_hits"]
        write_result_file(path, payload)
        run = self._check(work)
        assert any(
            f.kind == FINDING_MISSING_LEAF and f.path == "cache_hits"
            for f in run.findings
        )

    def test_missing_file_is_reported(self, tmp_path):
        work = _workdir(tmp_path)
        (work / "sweep_speedup.json").unlink()
        run = self._check(work)
        assert any(
            f.kind == FINDING_MISSING_FILE and f.file == "sweep_speedup"
            for f in run.findings
        )

    def test_unbanded_file_is_reported(self, tmp_path):
        work = _workdir(tmp_path)
        write_result_file(work / "brand_new.json", {"metric": 1.0})
        run = self._check(work)
        assert any(
            f.kind == FINDING_UNBANDED_FILE and f.file == "brand_new"
            for f in run.findings
        )

    def test_schema_mismatch_is_reported(self, tmp_path):
        work = _workdir(tmp_path)
        path = work / "sweep_speedup.json"
        payload = load_result(path)
        payload[META_KEY] = {"schema": 999}
        path.write_text(dumps_result(payload), encoding="utf-8")
        run = self._check(work)
        assert any(f.kind == FINDING_SCHEMA for f in run.findings)

    def test_untouched_copy_passes(self, tmp_path):
        work = _workdir(tmp_path)
        assert self._check(work).exit_code == 0


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_exit_zero_on_committed_pair(self):
        proc = _run_cli(results_dir=RESULTS)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exit_nonzero_on_drift(self, tmp_path):
        work = _workdir(tmp_path)
        path = work / "sweep_speedup.json"
        payload = load_result(path)
        payload["cache_hits"] += 1
        write_result_file(path, payload)
        proc = _run_cli(results_dir=work)
        assert proc.returncode == 1
        assert FINDING_DRIFT in proc.stdout

    def test_json_format_carries_exit_code(self, tmp_path):
        work = _workdir(tmp_path)
        (work / "sweep_speedup.json").unlink()
        proc = _run_cli("--format=json", results_dir=work)
        report = json.loads(proc.stdout)
        assert report["exit_code"] == proc.returncode == 1
        assert any(
            f["kind"] == FINDING_MISSING_FILE for f in report["findings"]
        )

    def test_update_bands_round_trip(self, tmp_path):
        work = _workdir(tmp_path)
        (work / "bands.json").unlink()
        proc = _run_cli(results_dir=work)
        assert proc.returncode == 2  # no band file yet
        proc = _run_cli("--update-bands", results_dir=work)
        assert proc.returncode == 0, proc.stderr
        proc = _run_cli(results_dir=work)
        assert proc.returncode == 0

    def test_subset_selection(self):
        proc = _run_cli("sweep_speedup", results_dir=RESULTS)
        assert proc.returncode == 0
        assert "1 results file(s)" in proc.stdout


# ---------------------------------------------------------------------------
# Flatten / unflatten


class TestFlatten:
    def test_round_trips_every_live_results_file(self):
        for name in result_names(RESULTS):
            payload = load_result(RESULTS / f"{name}.json")
            rebuilt = unflatten(flatten(payload))
            assert rebuilt == payload, name
            assert dumps_result(rebuilt) == (
                RESULTS / f"{name}.json"
            ).read_text(encoding="utf-8"), name

    def test_lists_round_trip(self):
        payload = {"plans": [{"x": 1}, {"x": 2}], "sizes": [1, 2, 3]}
        assert unflatten(flatten(payload)) == payload

    def test_awkward_keys_round_trip(self):
        payload = {
            "a/b": 1,
            "~tilde": 2,
            "[0]": {"nested/slash~": [3, None]},
        }
        leaves = flatten(payload)
        assert unflatten(leaves) == payload
        for path in leaves:
            assert split_path(path) is not None

    def test_leaf_name_is_final_segment(self):
        payload = {"scale": {"serial_seconds": 1.0}}
        (path,) = flatten(payload)
        assert leaf_name(path) == "serial_seconds"

    def test_empty_containers_rejected(self):
        with pytest.raises(ValueError):
            flatten({"empty": {}})
        with pytest.raises(ValueError):
            flatten({"empty": []})

    @given(
        st.recursive(
            st.one_of(
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.booleans(),
                st.none(),
                st.text(max_size=8),
            ),
            lambda leaf: st.one_of(
                st.lists(leaf, min_size=1, max_size=4),
                st.dictionaries(
                    st.text(max_size=8), leaf, min_size=1, max_size=4
                ),
            ),
            max_leaves=16,
        ).filter(lambda v: isinstance(v, dict) and v)
    )
    def test_flatten_unflatten_round_trips(self, payload):
        assert unflatten(flatten(payload)) == payload


# ---------------------------------------------------------------------------
# Policies and bands


class TestPolicies:
    def test_error_metrics_get_absolute_bands(self):
        band = classify("fig9/A100/active_err", 0.031)
        assert band.kind == KIND_ABSOLUTE
        assert band.admits(0.031)
        assert not band.admits(0.31)

    def test_speedup_gets_relative_band_that_halving_escapes(self):
        band = classify("speedup", 5.5)
        assert band.kind == KIND_RELATIVE
        assert band.admits(5.5)
        assert not band.admits(5.5 / 2.0)

    def test_counts_are_exact(self):
        band = classify("scale/pruned_points", 40)
        assert band.kind == KIND_EXACT
        assert band.admits(40)
        assert not band.admits(41)

    def test_strings_and_bools_are_exact(self):
        assert classify("x/bottleneck", "embedding").admits("embedding")
        assert not classify("x/bottleneck", "embedding").admits("gemm")
        band = classify("x/meets_slo", True)
        assert band.admits(True)
        assert not band.admits(1.0)  # a bool band must not admit floats

    def test_non_finite_floats_are_exact(self):
        band = classify("x/ratio", math.inf)
        assert band.kind == KIND_EXACT

    @given(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1, max_size=12,
        ),
    )
    def test_reference_value_is_always_inside_its_band(self, value, name):
        band = classify(f"x/{name}", value)
        assert band.admits(value)

    @given(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        st.floats(min_value=0.0, max_value=1e3),
    )
    def test_widening_a_band_never_flips_pass_to_fail(
        self, reference, probe, extra
    ):
        band = classify("x/some_metric", reference)
        if band.kind == KIND_EXACT:
            return
        wider = Band(
            kind=band.kind,
            lo=band.lo - extra,
            hi=band.hi + extra,
            policy=band.policy,
        )
        if band.admits(probe):
            assert wider.admits(probe)

    def test_band_dict_round_trip(self):
        band = classify("x/iteration_ms", 12.5)
        assert Band.from_dict(band.to_dict()) == band

    def test_finding_dict_round_trip(self):
        finding = RegressFinding(
            kind=FINDING_DRIFT, file="f", path="a/b", message="m"
        )
        assert RegressFinding.from_dict(finding.to_dict()) == finding
