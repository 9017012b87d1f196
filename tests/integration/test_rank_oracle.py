"""The rank engine against captured CLI output.

``data/rank_oracle/`` holds the stdout of ``rank --sample 0 --top 2000``
(every feasible point) in four variants, captured from the three-engine
implementation this engine replaced: plain, sharded over a two-worker
pool, fault-injected with retries, and behind the ``--check warn`` gate,
plus the exit code of ``--check error``. The one engine must reproduce
each byte for byte.
"""

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data" / "rank_oracle"
FULL_SPACE = ["rank", "--sample", "0", "--top", "2000"]


@pytest.mark.parametrize(
    "name,flags",
    [
        ("plain", []),
        ("sharded", ["--jobs", "2", "--shards", "auto"]),
        ("faulted", ["--faults", "seed=3;pcie:fail=0.2", "--retries", "3"]),
        ("check_warn", ["--check", "warn"]),
    ],
)
def test_rank_output_matches_the_oracle(name, flags, capsys):
    assert main(FULL_SPACE + flags) == 0
    expected = (DATA / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_check_error_exit_code_matches_the_oracle(capsys):
    expected = int((DATA / "check_error.exit").read_text())
    assert main(FULL_SPACE + ["--check", "error"]) == expected
