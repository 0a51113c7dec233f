"""Run one frobcode CLI command under an address-space limit.

    python3 bench/capped.py verify 'M2(GF(4))'

The limit is LIMIT_MB.  The exit code, stdout and stderr are the
command's own: an exception that escapes ``cli.main`` ends the process
with a traceback, as it does for ``python3 -m frobcode``.
"""

from __future__ import annotations

import resource
import sys

# Far below the 16 GiB table the default-cap verify of M2(GF(4)) asks
# for, far above what the rest of the command needs.
LIMIT_MB = 2048


def main(argv):
    limit = LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from frobcode import cli
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
