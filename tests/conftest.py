"""Shared pytest plumbing and numerical helpers for the chainopt test suite.

Acceptance tests register one pass/fail line each; the lines are printed
inline and repeated in a terminal summary section so they survive output
capture under plain ``pytest -v``. Test modules import the helpers below
with ``from conftest import ...``.
"""

import numpy as np

ACCEPTANCE_RESULTS = []


def fd_vector(fn, theta, h=1e-6):
    """Central finite difference of fn at theta. For fn returning an array
    of shape s the result has shape s + (theta.size,)."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.shape(fn(theta)) + (theta.size,))
    for i in range(theta.size):
        e = np.zeros(theta.size)
        e[i] = h
        out[..., i] = (np.asarray(fn(theta + e)) - np.asarray(fn(theta - e))) / (2 * h)
    return out


def transition_score(chain, x, y, theta, t=0):
    """Score of one tabular transition x -> y, read through score_sums."""
    return chain.score_sums(theta, [x], [y], [1.0], [0], 1, t)[0]


def log_prob(chain, x, y, theta, t=0):
    """log P[x, y] of a tabular chain, read from its transition matrix."""
    return np.log(chain.transition_matrix(theta, t)[x, y])


def record_acceptance(index: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {index:2d} [{name}] {status}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append((index, line))
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)
