"""``python -m wcontact``: the ``wcontact`` command."""

import sys

from . import cli

sys.exit(cli.main())
