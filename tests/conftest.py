import os

# One BLAS thread, before anything loads numpy, as perfbench/run.py does: the
# simulator's 27x27 and (2048, 27) products gain nothing from a second
# OpenBLAS thread, which only spins (the suite used ~1.6x its wall time in CPU).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import re  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cavity_toffoli.model import PhysicalParams  # noqa: E402
from cavity_toffoli.qmath import OperatorMatrix  # noqa: E402

_ACCEPTANCE: dict[str, str] = {}
_CRITERION_RE = re.compile(r"::test_(criterion_\d+[a-z]?_[a-z0-9_]+)")


def dense_unitary(h: OperatorMatrix, t: float) -> OperatorMatrix:
    """Reference exp(-i H t) of a hermitian-tagged H, by eigendecomposition,
    tagged unitary.  Not scipy's expm: at delta/omega = 50 (|H t|_1 ~ 6e4) its
    scaling and squaring is 3e-12 off, outside the 1e-12 pins that use this."""
    assert h.hermitian
    w, v = np.linalg.eigh(h.entries)
    return OperatorMatrix(h.space, (v * np.exp(-1j * w * t)) @ v.conj().T, unitary=True)


@pytest.fixture(scope="session")
def params():
    """The reference operating point: 50 kHz coupling, delta = 4 omega."""
    return PhysicalParams.from_frequency()


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match and "test_acceptance" in report.nodeid:
        _ACCEPTANCE[match.group(1)] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        outcome = _ACCEPTANCE[name]
        label = name.replace("_", " ")
        terminalreporter.write_line(
            f"{'PASS' if outcome == 'passed' else 'FAIL'}: {label}")
