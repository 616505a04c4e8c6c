"""Shared test plumbing: the acceptance-criteria summary block, and the network
that the failure tests need."""

from pathlib import Path

# The bundled affine surrogate, named for the tests that assert its failure: with
# this network case3-eps02 (alpha and beta randomized) diverges at seed 10.
# Those tests load it explicitly, so that pointing the configs at another
# network cannot silently remove the failure they assert.
DIVERGING_AFFINE_NETWORK = str(
    Path(__file__).resolve().parent.parent / "configs" / "networks" / "case1_affine.rbfnet"
)

_CRITERION_LINES: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    """Register one acceptance criterion outcome for the terminal summary."""
    _CRITERION_LINES[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        ok, detail = _CRITERION_LINES[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} ({detail})")
