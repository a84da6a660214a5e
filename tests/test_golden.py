"""Bundled-fixture reports equal tests/golden/reports.jsonl under every configuration.

A report differs only when the pipeline's output does; `timings` are left
out. After a change meant to alter reports, run scripts/update_golden.py.
"""

import pytest

from golden_reports import (
    CONFIGURATIONS,
    GOLDEN_FILE,
    golden_line,
    read_golden,
    run_configuration,
)
from ragmend.mockserver import MockService


@pytest.fixture(scope="module")
def golden():
    return read_golden()


@pytest.fixture(scope="module")
def mock_base(fixtures_dir):
    with MockService(fixtures_dir) as svc:
        yield svc.base_url


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden") / "cache"


def test_file_covers_the_matrix(golden):
    assert list(golden) == list(CONFIGURATIONS)
    lines = [golden_line(name, report) + "\n" for name, report in golden.items()]
    assert GOLDEN_FILE.read_text("utf-8") == "".join(lines)


@pytest.mark.parametrize("name", CONFIGURATIONS)
def test_report_matches_golden(name, golden, fixture_dataset, mock_base, cache_dir):
    got = run_configuration(name, fixture_dataset, mock_base, cache_dir)
    want = dict(golden[name])
    got_records = {r["instance_id"]: r for r in got.pop("records")}
    want_records = {r["instance_id"]: r for r in want.pop("records")}
    assert list(got_records) == list(want_records), f"{name}: instance ids differ"
    for instance_id, record in want_records.items():
        assert got_records[instance_id] == record, f"{name}: instance {instance_id} differs"
    assert got == want, f"{name}: report summary differs"
