"""Golden outputs: the exact bytes that the label commands, the chain
sweeps and `dump-rep` print.

Each command runs in process through `cli.main`.  The test pins the sha256
of its stdout and its exit code, so a refactor of the label layer or of the
chain checks that changes one byte of a report, a table or a decomposition
fails here, as does a change to `qarith` or `uqmod` that changes one
printed Q(q) entry of a module's matrices.  A change that means to alter
one of these outputs updates its digest, and says why.
"""

import contextlib
import hashlib
import io

import pytest

from mixedchain.cli import main

GOLDEN = {
    "verify identities --max-mn 25 --json":
        "84df3a5dc11604a8123ad5237306ee0f2ca9c1ab9c75b830c7d2174f2a844783",
    "verify dims --max-mn 25 --json":
        "12f7f758f080e87ee0e598aa682f132e05916e99e1a5340e9dd4212fa09d66c7",
    "bimodule 19 17": "f53fd6bf58ecadf0c0316b9f088bc002e5a8e856d107e63e33e4cc52f49ce167",
    "bimodule 3 0": "c5e8789d7d91e8f01078545f9a16b85a55ce136271459c93a34575dde7ed1444",
    "bimodule 0 3": "1b0c8843b361d9e0030dfff364b9f93c9806995cc63f9c46e0ff3320eec9a5a1",
    "bimodule 6 6": "afb0aa3ed4a8e15bfff4c4c80b7fbebf9c6022282254c898022c2a5a41c83bfe",
    "bimodule 5 9": "8bdc4c54bc6e645b08551927ba80e2c272c0a79e2bb6f251cb4f1beffc554777",
    "bimodule 1 1": "3ac1451189c427558616545d638b8f8a29a0dab6801abdded104fb71d753a2c0",
    "decompose 20 40": "656f49f9adfe9bf4b9651e481a3f3983928306c559f308d68c49eb8ddc700874",
    "table 17 13 --json": "7f1f32f000e0126634f3ef2229f7280884e748393e00da2a0ea20f7543cc0ae7",
    "table 4 9": "7de5df32bff06eb53eab994d1193e303c50c0dce0a7b798fbde0e83cfdb1ae0f",
    "table 8 8": "66a07afede12f166c3c75fbb48e112a0f4cb72bafee48ec23ef53a260a7441a9",
    "table 12 0 --json": "04946eacb75838e4feb4a06218f6836f8989958c7f38bdfad36951309063df9a",
    "table 11 12 --json": "c716ceb90ad021460853d44ed17e53b71eb28dd0d6b3920704571f08167f3f2b",
    "bimodule 13 12": "da0d7104df90bce7106e096d0a9632f16f5370c88d77f78c06a62671db375c07",
    "verify relations --max-mn 10 --json":
        "3aadf56887669a1683367c2ae1f9ff1d026a77f83eaff06e4b9b8f374d74645d",
    "verify centralizer --max-mn 8 --json":
        "fe5feff955bff85c947170ccd8a194299ee4781b911bd822e7e9ffd7e7cf2da2",
    "verify relations --backend eval --max-mn 7 --json":
        "27b1b1c35916df8ca2e9ced84368f912581989285c540d80cb06fcf65a94d47a",
    "verify centralizer --backend eval --seed 3 --max-mn 5 --json":
        "8716d98a7325ccd1e281d9b434a649d66f7bc2da0ef79c492ee7266fd18bacd5",
    "dump-rep Z[-1,1;4,2]": "0c38122ec9821c2c4afdf1822a66037ec65f459a01c5fbaf202e5dab79af2216",
    "dump-rep R[1,-1;3,0]": "8244df86fca1e242cfd3de01d359beb7037e6725461e21fbcb966852e6a0a694",
    "dump-rep R[1,1;2,2]": "79c2770950c7a4d28535f67b18ad87cb65975bb2b5545ade8342f68d86073792",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_is_byte_identical(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    assert code == 0, command
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[command], command
