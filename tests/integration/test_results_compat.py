"""Results written by an older release keep resuming and rendering unchanged.

``tests/fixtures/compat`` holds tiny results files written by commit
d9db889, before the legacy campaign/sweep layer was removed (see the README
there): a campaign JSONL, a two-point sweep directory, a faultload-replay
campaign with its artifact, and the campaign file cut after two of its four
trials with a torn final line.  Every test works on a tmp copy, so the
fixtures themselves are never rewritten.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.exec import ExperimentSpec, run_experiment
from repro.exec.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "compat"

#: (spec file, results path) of every complete fixture run.
COMPLETE = [
    ("campaign.spec.json", "campaign.jsonl"),
    ("sweep.spec.json", "sweep"),
    ("replay.spec.json", "replay.jsonl"),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A tmp copy of the fixtures, as cwd (the replay spec names its
    faultload artifact by a relative path)."""
    copy = tmp_path / "compat"
    shutil.copytree(FIXTURES, copy)
    monkeypatch.chdir(copy)
    return copy


def tree_bytes(path: Path) -> dict[str, bytes]:
    if path.is_file():
        return {path.name: path.read_bytes()}
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def rerun(workdir: Path, spec_file: str, results: str) -> int:
    """Run a fixture spec into ``results``; returns the trials executed."""
    executed = []
    spec = ExperimentSpec.from_json((workdir / spec_file).read_text())
    run_experiment(
        spec,
        results_path=workdir / results,
        progress=lambda event: executed.append(1) if event.kind == "trial" else None,
    )
    return len(executed)


@pytest.mark.parametrize("spec_file, results", COMPLETE)
def test_complete_fixture_runs_no_trials_and_keeps_its_bytes(workdir, spec_file, results):
    before = tree_bytes(workdir / results)
    assert rerun(workdir, spec_file, results) == 0
    assert tree_bytes(workdir / results) == before


def test_torn_fixture_resumes_to_the_complete_bytes(workdir):
    assert rerun(workdir, "campaign.spec.json", "campaign-torn.jsonl") == 2
    assert (workdir / "campaign-torn.jsonl").read_bytes() == (
        FIXTURES / "campaign.jsonl"
    ).read_bytes()


@pytest.mark.parametrize(
    "results, exit_code",
    [("campaign.jsonl", 0), ("sweep", 0), ("replay.jsonl", 0), ("campaign-torn.jsonl", 1)],
)
def test_report_renders_each_fixture_as_before(workdir, capsys, results, exit_code):
    assert cli_main(["report", results]) == exit_code
    stem = results.removesuffix(".jsonl")
    assert capsys.readouterr().out == (FIXTURES / f"{stem}.report.txt").read_text()


def test_point_headers_parse_back_to_the_same_spec(workdir):
    """Every stored point header is a gridless spec that serialises back to
    itself -- resume keys and canonical rewrites depend on it."""
    headers = [
        workdir / "campaign.jsonl",
        workdir / "replay.jsonl",
        *sorted((workdir / "sweep").glob("*.jsonl")),
    ]
    for path in headers:
        header = json.loads(path.read_text().splitlines()[0])["spec"]
        assert ExperimentSpec.from_dict(header).to_dict() == header, path.name


@pytest.mark.parametrize("executor", ["process", "distributed"])
def test_torn_fixture_resumes_on_a_parallel_backend(workdir, executor):
    spec = ExperimentSpec.from_json((workdir / "campaign.spec.json").read_text())
    run_experiment(
        spec,
        executor=executor,
        n_workers=2,
        results_path=workdir / "campaign-torn.jsonl",
    )
    assert (workdir / "campaign-torn.jsonl").read_bytes() == (
        FIXTURES / "campaign.jsonl"
    ).read_bytes()


@pytest.mark.parametrize(
    "results, n_records",
    [("campaign.jsonl", 4), ("sweep", 8), ("replay.jsonl", 4), ("campaign-torn.jsonl", 2)],
)
def test_query_counts_the_records_of_each_fixture(workdir, capsys, results, n_records):
    assert cli_main(["query", results, "--count"]) == 0
    assert capsys.readouterr().out.strip() == str(n_records)


@pytest.mark.parametrize("spec_file, results", COMPLETE)
def test_fixture_converts_to_sqlite_and_back_to_its_bytes(
    workdir, capsys, spec_file, results
):
    database = workdir / "converted.db"
    exported = workdir / "exported" / results
    exported.parent.mkdir()
    assert cli_main(["store", "convert", results, "--to", "sqlite", "--out", str(database)]) == 0
    assert cli_main(["store", "convert", str(database), "--to", "jsonl", "--out", str(exported)]) == 0
    assert tree_bytes(exported) == tree_bytes(workdir / results)
