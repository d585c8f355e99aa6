"""Building, saving and loading the committed reference-band file.

``results/bands.json`` pins one :class:`~repro.regress.policy.Band`
per metric leaf per results file.  It is regenerated — never edited by
hand — with ``repro regress --update-bands`` (mirroring the goldens'
``--update-goldens`` workflow), so an intentional accuracy shift
lands as a reviewable band diff while silent drift fails CI.
"""

from __future__ import annotations

from pathlib import Path

from repro.regress.flatten import flatten
from repro.regress.policy import (
    DEFAULT_POLICIES,
    Band,
    TolerancePolicy,
    classify,
)
from repro.regress.resultsio import (
    META_KEY,
    META_SCHEMA_KEY,
    dumps_result,
    load_result,
    result_names,
    schema_of,
    stamp_payload,
)


def bands_for_payload(
    payload: dict,
    policies: tuple[TolerancePolicy, ...] = DEFAULT_POLICIES,
) -> dict[str, Band]:
    """Reference bands for every data leaf of one results payload.

    The metadata stamp is excluded: its schema version is checked
    explicitly (and more legibly) by the file-level schema check.
    """
    data = {k: v for k, v in payload.items() if k != META_KEY}
    return {
        path: classify(path, value, policies)
        for path, value in flatten(data).items()
    }


def build_bands(
    results_dir: Path | str,
    policies: tuple[TolerancePolicy, ...] = DEFAULT_POLICIES,
) -> dict:
    """Build the full band payload for every results file on disk."""
    results_dir = Path(results_dir)
    files: dict[str, dict] = {}
    for name in result_names(results_dir):
        payload = load_result(results_dir / f"{name}.json")
        schema = schema_of(payload)
        bands = bands_for_payload(payload, policies)
        files[name] = {
            META_SCHEMA_KEY: schema,
            "leaves": {path: band.to_dict() for path, band in bands.items()},
        }
    if not files:
        raise FileNotFoundError(f"no results files under {results_dir}")
    return {"files": files}


def save_bands(payload: dict, path: Path | str) -> Path:
    """Write a band payload canonically (stamped, sorted, newline)."""
    path = Path(path)
    path.write_text(dumps_result(stamp_payload(payload)), encoding="utf-8")
    return path


def load_bands(path: Path | str) -> dict:
    """Load ``bands.json`` and basic-validate its shape."""
    payload = load_result(path)
    files = payload.get("files")
    if not isinstance(files, dict) or not files:
        raise ValueError(f"{path} has no 'files' section")
    return payload


def file_bands(bands_payload: dict, name: str) -> dict[str, Band] | None:
    """The per-leaf bands for one results file (``None`` if unbanded)."""
    entry = bands_payload["files"].get(name)
    if entry is None:
        return None
    return {
        path: Band.from_dict(data)
        for path, data in entry["leaves"].items()
    }


def file_schema(bands_payload: dict, name: str) -> int | None:
    """The schema version recorded for one banded results file."""
    entry = bands_payload["files"].get(name)
    if entry is None:
        return None
    return entry.get(META_SCHEMA_KEY)
