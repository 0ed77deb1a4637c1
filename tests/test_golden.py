"""Reports pinned by sha256: any change to a report's bytes fails here.

Reports are byte-deterministic for a given configuration, so a refactor
that is meant to leave results alone must leave these hashes alone.
"""

import hashlib

import pytest

from hallalg.cli import main

Q2 = ["--q", "2", "--max-dim", "3"]

GOLDEN = [
    pytest.param(["tables", "--quiver", "a2"] + Q2,
                 "380ccd433866dedc374dc00a785ca05fd4057114f3cb5d98dd8f6a69b8d58d04",
                 id="tables-a2"),
    pytest.param(["tables", "--quiver", "a3-source"] + Q2,
                 "cc1cd6add44ad42cfa8d999fbc1a3735a2ee8261424ea1a0200ca2ba89d76d7c",
                 id="tables-a3-source"),
    pytest.param(["tables", "--quiver", "d4"] + Q2,
                 "169de74cd4f9de1205250679911025363577e8871bc18b004038cbc07d0f55cb",
                 id="tables-d4"),
    pytest.param(["tables", "--quiver", "a2", "--q", "3", "--max-dim", "3"],
                 "f665e0412a2693bf1bcc1d132a75a0e82c54e45de2acfe9a2e9bc359f41d99a7",
                 id="tables-a2-q3"),
    pytest.param(["verify", "antipode", "--quiver", "a2"] + Q2,
                 "67abc74330c9949695bce59ed73efb4076ce5f3b2d10e5805f640c65b09565f4",
                 id="verify-antipode-a2"),
    pytest.param(["verify", "spans", "--quiver", "a2"] + Q2,
                 "82ca2eb43141b2cb71114fde38bd80643b10d12a86aa49af4b66327e1db498d4",
                 id="verify-spans-a2"),
    pytest.param(["verify", "bilinearity", "--quiver", "a2"] + Q2,
                 "d964d43cca124ff9c043b07320012a4c09f7ea88a67b659b6d4605b372131e55",
                 id="verify-bilinearity-a2"),
    pytest.param(["verify", "coherence", "--quiver", "a2"] + Q2,
                 "080e708a6cdc35844e464ec7eeee4e18cf47f1cc3584663f600f3cc78807eb43",
                 id="verify-coherence-a2"),
]


@pytest.mark.parametrize("argv,sha", GOLDEN)
def test_report_bytes(tmp_path, argv, sha):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
