"""The pinned output digests, each written once, in ``digests.sha256``.

That file is in ``sha256sum`` format, one line per output file of the
commands below, so CI checks the same digests with ``sha256sum --check``:

- ``v.json``: ``twospring verify``;
- ``s.csv``: ``twospring sweep``;
- ``b.csv``: ``twospring boundaries``;
- ``v20k.json``: ``twospring verify --samples 20000 --seed 1``;
- ``single.txt``: ``solve`` for both wirings and ``classify`` over the
  ``SINGLE_PAIR_EDGES`` of ``test_cli.py``, in its order.
"""

from pathlib import Path

DIGESTS = {
    name: digest
    for digest, name in (line.split() for line in Path(__file__).with_name("digests.sha256").read_text().splitlines())
}
