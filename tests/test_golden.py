"""Golden outputs: digests of the acceptance detail lines, of the stdout
of the README's command-line examples and of further CLI commands.

The digests pin the exact bytes, so a change to how expressions are built,
cached or simplified that alters any printed digit shows here.  Elapsed
seconds are stripped from the acceptance details; the README's
``acceptance`` example is covered by the criteria themselves.
``README_COMMANDS`` must be the README's other examples, in its order.
"""

import hashlib
import io
import re
from pathlib import Path

from solvable.acceptance import CRITERIA
from solvable.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"

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
    "ba2560f535bb568b7540c0f929c8ae0e82ac9ca2f3ccba58aa2a56b501ecca72")
README_DIGEST = (
    "af54f20a7de58b97203bef7b9861af7b863363a8d6533d7c046710b58065d042")

_ELAPSED = re.compile(r"\d+\.\d+s \(cap \d+s\)")


def acceptance_digest():
    h = hashlib.sha256()
    for index, _name, fn in CRITERIA:
        passed, detail = fn(seed=42)
        h.update(f"{index}|{passed}|{_ELAPSED.sub('', detail)}\n".encode())
    return h.hexdigest()


def readme_digest():
    h = hashlib.sha256()
    for cmd in README_COMMANDS:
        out = io.StringIO()
        code = run(cmd.split(), out)
        h.update(f"{cmd}|{code}|{out.getvalue()}".encode())
    return h.hexdigest()


def test_acceptance_details_unchanged():
    assert acceptance_digest() == ACCEPTANCE_DIGEST


def test_readme_commands_unchanged():
    assert readme_digest() == README_DIGEST


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
    "a07f4004bcdf0684b20efc694c6db272ad45748e1583efd64d3fbb8d51b9ddc3")


def cli_digest():
    h = hashlib.sha256()
    for cmd in CLI_COMMANDS:
        out = io.StringIO()
        code = run(cmd.split(), out)
        h.update(f"{cmd}|{code}|{out.getvalue()}".encode())
    return h.hexdigest()


def test_cli_commands_unchanged():
    assert cli_digest() == CLI_DIGEST
