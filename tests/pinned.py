"""The pinned output digests, each written once, in ``digests.sha256``.

That file is in ``sha256sum`` format, one line per output file of the
commands below, so CI checks the same digests with ``sha256sum --check``:

- ``v.json``: ``twospring verify``;
- ``s.csv``: ``twospring sweep``;
- ``b.csv``: ``twospring boundaries``;
- ``v20k.json``: ``twospring verify --samples 20000 --seed 1``;
- ``single.txt``: ``solve`` for both wirings and ``classify`` over
  ``SINGLE_PAIR_EDGES`` below, in its order.

It imports no numpy, so the numpy-free CI job reads the pairs from here.
"""

from pathlib import Path

DIGESTS = {
    name: digest
    for digest, name in (line.split() for line in Path(__file__).with_name("digests.sha256").read_text().splitlines())
}

# (a, b) on every branch edge of the closed form: the a = 0 axis on either
# side of b = 1/k, subnormal and tiny a, the tie, the three dividing lines,
# a huge b and an infinite weight
SINGLE_PAIR_EDGES = [
    ("0", "0.3"), ("0", "0.49999999999999994"), ("0", "0.5"), ("0", "0.7"),
    ("0", "0.9999999999999999"), ("0", "1"), ("0", "1.2"),
    ("5e-324", "0.1"), ("1e-308", "0.1"), ("0.4", "0.4"),
    ("0.2", "0.4"), ("0.42857142857142855", "0.2857142857142857"),  # a + 2b = 1
    ("0.5", "0.5"), ("0.3", "0.7"),  # a + b = 1
    ("0.36", "0.56"), ("0.3333333333333333", "0.6666666666666667"),  # b = 2 - 4a
    ("0", "1e308"), ("0.5", "1e308"), ("inf", "0.5"), ("0.5", "inf"), ("0", "inf"),
]  # fmt: skip
