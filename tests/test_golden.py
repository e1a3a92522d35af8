"""Golden outputs: digests of the acceptance detail lines, of the stdout
of the README's command-line examples and of further CLI commands, and of
the exit status, stdout and stderr of failing and refused commands.

The digests pin the exact bytes, so a change to how expressions are built,
cached or simplified that alters any printed digit shows here.  The
outputs of the benchmark's first ``spectrum`` tasks are pinned the same
way, through ``perfbench/`` imported read-only.  Elapsed
seconds are stripped from the acceptance details; the README's
``acceptance`` example is covered by the criteria themselves.
``README_COMMANDS`` must be the README's other examples, in its order.
"""

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

from solvable.acceptance import CRITERIA
from solvable.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402

README_COMMANDS = [
    "families --alpha -7 --beta 1",
    "poly --case s^2 --alpha -7 --beta 1 --ell 3",
    "specfun eval --case s --alpha -1 --beta 2 --ell 2 --m 1 --grid 101",
    "potential --case one --alpha -2 --beta 0 --m 0 --grid 201",
    "eigenfunction --case one --alpha -2 --beta 0 --ell 1 --m 0",
    "generate --c1 1 --c2 0 --n 0 --branch + --which cuberoot",
    "solve-params --mode invsqrt --c1 -1 --c2 -6.75 --n 3",
    "verify spectrum --family one --alpha -2 --beta 0 --m 0 --grid 4000",
    "verify residual --system cuberoot --c1 1 --c2 0 --n 1 --branch +",
    "verify orthogonality --case s --alpha -1 --beta 2 --m 1 --lmax 4",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1",
]

ACCEPTANCE_DIGEST = (
    "095faa577daf3982871a762494432be6899897384019ca12aff9eefcd4eae5d2")
README_DIGEST = (
    "2f75eaeef9e4423490dcd346c18eac1dc86538e3c70d1a65bdc4539bb69ac938")

_ELAPSED = re.compile(r"\d+\.\d+s \(cap \d+s\)")


def acceptance_digest():
    h = hashlib.sha256()
    for index, _name, fn in CRITERIA:
        passed, detail = fn()
        h.update(f"{index}|{passed}|{_ELAPSED.sub('', detail)}\n".encode())
    return h.hexdigest()


def commands_digest(commands):
    """Digest of each command with its exit status and stdout."""
    h = hashlib.sha256()
    for cmd in commands:
        out = io.StringIO()
        code = run(cmd.split(), out)
        h.update(f"{cmd}|{code}|{out.getvalue()}".encode())
    return h.hexdigest()


def test_acceptance_details_unchanged():
    assert acceptance_digest() == ACCEPTANCE_DIGEST


def test_readme_commands_unchanged():
    assert commands_digest(README_COMMANDS) == README_DIGEST


def readme_command_lines():
    """The ``solvable ...`` lines of the README's shell blocks, without
    the program name and trailing comments."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    return [m.group(1) for block in blocks
            for m in re.finditer(r"^solvable (.*?)\s*(?:#.*)?$", block,
                                 re.M)]


def test_readme_commands_are_the_readmes():
    assert README_COMMANDS == [cmd for cmd in readme_command_lines()
                               if cmd != "acceptance"]

# CLI outputs no README example covers: the family spectrum table, both
# branches of the inverse-sqrt generator, the quantsys parameter roots, the
# inverse-sqrt and non-oscillator family residuals and the cube-root
# transform of the translated oscillator
CLI_COMMANDS = [
    "verify spectrum --system family --case s --alpha -1 --beta 2 --m 0 "
    "--xmin 0.001 --xmax 30 --grid 2000",
    "verify spectrum --system family --case 1-s^2 --alpha -5 --beta 1 "
    "--m 0 --xmin -1.5707 --xmax 1.5707 --grid 2000",
    "verify spectrum --system family --case s^2+1 --alpha -5 --beta 1 "
    "--m 1 --grid 2000",
    "generate --which sqrt --c1 1 --c2 3 --n 0 --branch +",
    "generate --which sqrt --c1 1 --c2 3 --n 0 --branch -",
    "solve-params --mode quantsys --c1 1 --c2 -5 --n 1",
    "solve-params --mode quantsys --c1 1.5 --c2 0.7 --n 2",
    "verify residual --system sqrt --c1 1 --c2 3 --n 0 --branch -",
    "verify residual --system family --case s --alpha -1 --beta 2 --ell 2 "
    "--m 1",
    "verify residual --system family --case 1-s^2 --alpha -5 --beta 1 "
    "--ell 3 --m 2 --grid 100",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 2",
]

CLI_DIGEST = (
    "1a2490714d4c8df7d120884b24f185ab8718f86946f3ed5a6398b246806eab15")



def test_cli_commands_unchanged():
    assert commands_digest(CLI_COMMANDS) == CLI_DIGEST


# the cube-root spectrum table: the default levels, low levels that are
# inadmissible (n = 0, 1 at c1 = 1, c2 = -5) and levels chosen by --emax
# in a narrowed window
CUBEROOT_SPECTRUM_COMMANDS = [
    "verify spectrum --system cuberoot --grid 2000",
    "verify spectrum --system cuberoot --c1 1 --c2 -5 --grid 2000",
    "verify spectrum --system cuberoot --c1 1.5 --c2 0.7 --emax 8 "
    "--xmax 30 --grid 2000",
]

CUBEROOT_SPECTRUM_DIGEST = (
    "dc7b9eb137855953aaf5abf1203154e01e02b7e499df3447a79d9dc16dd46d64")


def test_cuberoot_spectrum_commands_unchanged():
    assert commands_digest(CUBEROOT_SPECTRUM_COMMANDS) == \
        CUBEROOT_SPECTRUM_DIGEST


# failing commands and refusals: exit status 1 with the violated constraint
# on stderr, or exit status 0 with an "admissible": false entry.  One or more
# per kind of failure the CLI can reach: inadmissible family parameters, an
# order m above the degree, a negative base under a fractional power, a
# map-defining term with no closed-form map, a non-rational or malformed
# exponent, no admissible root of either generated system, a parameter
# cubic degenerate at c1 = 0, no admissible cube-root level and an
# orthogonality request with no pair of degrees
ERROR_COMMANDS = [
    "poly --case s^2-1 --alpha -7 --beta 1 --ell 1",
    "families --alpha 1 --beta 1",
    "eigenfunction --case one --alpha -2 --beta 0 --ell 1 --m 3",
    "specfun eval --case 1-s^2 --alpha -5 --beta 1 --ell 2 --m 1 "
    "--smin -2 --smax 0",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik (1+x)^2",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^(-2)",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 2 --Ik exp(x)",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^y",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^(y)",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^(1/y)",
    "reproduce-dw --theta 1 --rho 0 --lambda -1 --which 1 --Ik x^(1/0)",
    "verify residual --system sqrt --c1 0 --c2 1",
    "verify residual --system sqrt --c1 1 --c2 3 --n 0 --branch +",
    "verify residual --system cuberoot --c1 1 --c2 -5 --n 0",
    "verify spectrum --system cuberoot --c1 1 --c2 -100 --grid 100",
    "verify orthogonality --case s^2 --alpha -7 --beta 1 --m 3",
    "generate --which sqrt --c1 -1 --c2 3 --n 0 --branch -",
    "generate --which sqrt --c1 0 --c2 1 --n 0",
    "generate --c1 1 --c2 -5 --n 1",
    "solve-params --mode invsqrt --c1 0 --c2 1 --n 0",
    "solve-params --mode quantsys --c1 1 --c2 -5 --n 0",
]

ERRORS_DIGEST = (
    "68fbb7fa5749e8eda6a80911b7233458de7c9b970f9af5e95db80b38cb16db2d")


def errors_digest(commands):
    """Digest of each command with its exit status, stdout and stderr."""
    h = hashlib.sha256()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(cmd.split(), out)
        h.update(f"{cmd}|{code}|{out.getvalue()}|{err.getvalue()}".encode())
    return h.hexdigest()


def test_error_commands_unchanged():
    assert errors_digest(ERROR_COMMANDS) == ERRORS_DIGEST


# the outputs of the first 40 tasks of the benchmark's spectrum workload
# (seed 7, the measured stream): eigenvalues from the library path and the
# ``verify spectrum`` table, at grids 2000, 3000 and 4000
SPECTRUM_TASKS = 40
SPECTRUM_TASKS_DIGEST = (
    "8b01748f1418266697dbb5677337e2068678c2e8c9ad7ed34d5192b69d560c16")


def test_spectrum_task_outputs_unchanged():
    make_task = workloads.WORKLOADS["spectrum"][0]
    plain = layers.plain()
    outputs = [make_task(7, workloads.MEASURE, index).run(plain)
               for index in range(SPECTRUM_TASKS)]
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == SPECTRUM_TASKS_DIGEST
